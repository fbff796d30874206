-module(main).
-export([main/0]).
-compile({no_auto_import, [now/0]}).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    A = agent:start(),
    Ts1 = ticketservice:start(),
    Ts2 = ticketservice:start(),
    A ! {Ts1, Ts2},
    Ts1 ! {A},
    Ts2 ! {A},
    A ! {{main, now(), inf}, initial},
    Ts1 ! {{main, now(), inf}, initial},
    Ts2 ! {{main, now(), inf}, initial},
    ok.

now() -> erlang:monotonic_time(millisecond).
