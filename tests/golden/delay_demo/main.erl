-module(main).
-export([main/0]).
-compile({no_auto_import, [now/0]}).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    W = worker:start(),
    K = sink:start(),
    W ! {K},
    K ! {},
    W ! {{main, now(), inf}, initial},
    K ! {{main, now(), inf}, initial},
    ok.

now() -> erlang:monotonic_time(millisecond).
