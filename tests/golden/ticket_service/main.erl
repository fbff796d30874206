-module(main).
-export([main/0]).
-compile({no_auto_import, [now/0]}).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    A_1 = agent:start(),
    Ts1_2 = ticketservice:start(),
    Ts2_3 = ticketservice:start(),
    A_1 ! {Ts1_2, Ts2_3},
    Ts1_2 ! {A_1},
    Ts2_3 ! {A_1},
    A_1 ! {{main, now(), inf}, initial},
    Ts1_2 ! {{main, now(), inf}, initial},
    Ts2_3 ! {{main, now(), inf}, initial},
    ok.

now() -> erlang:monotonic_time(millisecond).
