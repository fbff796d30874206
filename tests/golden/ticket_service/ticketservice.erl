-module(ticketservice).
-export([start/0]).
-compile({no_auto_import, [now/0]}).

-record(ticketservice_knownrebecs, {a}).
-record(ticketservice_statevars, {}).

start() ->
    spawn(fun ticketService/0).

%% Stage 1: wait for references to the known rebecs.
ticketService() ->
    receive
        {A_1} ->
            ticketService(#ticketservice_knownrebecs{a = A_1})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
ticketService(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #ticketservice_statevars{},
            ticketService(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
ticketService(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, requestTicket, Tok_2} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    ticketService(KnownRebecs, StateVars);
                true ->
                    receive after (case rand:uniform(2) of 1 -> env:serviceTime1(); 2 -> env:serviceTime2() end) -> ok end,
                    KnownRebecs#ticketservice_knownrebecs.a ! {{self(), now(), inf}, replyTicket, Tok_2},
                    ticketService(KnownRebecs, StateVars)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
