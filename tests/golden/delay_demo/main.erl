-module(main).
-export([main/0]).
-compile({no_auto_import, [now/0]}).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    W_1 = worker:start(),
    K_2 = sink:start(),
    W_1 ! {K_2},
    K_2 ! {},
    W_1 ! {{main, now(), inf}, initial},
    K_2 ! {{main, now(), inf}, initial},
    ok.

now() -> erlang:monotonic_time(millisecond).
