-module(main).
-export([main/0]).
-compile({no_auto_import, [now/0]}).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    C_1 = counter:start(),
    D_2 = counter:start(),
    K_3 = sink:start(),
    C_1 ! {K_3},
    D_2 ! {K_3},
    K_3 ! {},
    C_1 ! {{main, now(), inf}, initial, 5},
    D_2 ! {{main, now(), inf}, initial},
    K_3 ! {{main, now(), inf}, initial},
    ok.

now() -> erlang:monotonic_time(millisecond).
