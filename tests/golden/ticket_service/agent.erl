-module(agent).
-export([start/0]).
-compile({no_auto_import, [now/0]}).

-record(agent_knownrebecs, {ts1, ts2}).
-record(agent_statevars, {attemptCount = 0, token = 0}).

start() ->
    spawn(fun agent/0).

%% Stage 1: wait for references to the known rebecs.
agent() ->
    receive
        {Ts1_1, Ts2_2} ->
            agent(#agent_knownrebecs{ts1 = Ts1_1, ts2 = Ts2_2})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
agent(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #agent_statevars{},
            self() ! {{self(), now(), inf}, findTicket, 1},
            agent(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
agent(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, findTicket, Which_3} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    StateVars_4 = StateVars#agent_statevars{attemptCount = (StateVars#agent_statevars.attemptCount + 1)},
                    StateVars_5 = StateVars_4#agent_statevars{token = (StateVars_4#agent_statevars.token + 1)},
                    case (Which_3 =:= 1) of
                        true ->
                            KnownRebecs#agent_knownrebecs.ts1 ! {{self(), now(), now() + env:requestDeadline()}, requestTicket, StateVars_5#agent_statevars.token},
                            ok;
                        false ->
                            KnownRebecs#agent_knownrebecs.ts2 ! {{self(), now(), now() + env:requestDeadline()}, requestTicket, StateVars_5#agent_statevars.token},
                            ok
                    end,
                    Sender_6 = self(),
                    spawn(fun() ->
                        receive after env:checkIssuedPeriod() ->
                            Sender_6 ! {{Sender_6, now(), inf}, checkTicket}
                        end
                    end),
                    agent(KnownRebecs, StateVars_5)
            end;
        {{From, SendTime, Deadline}, replyTicket, Tok_7} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    case (Tok_7 =:= StateVars#agent_statevars.token) of
                        true ->
                            self() ! {{self(), now(), inf}, ticketIssued},
                            ok;
                        false ->
                            ok
                    end,
                    agent(KnownRebecs, StateVars)
            end;
        {{From, SendTime, Deadline}, ticketIssued} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    agent(KnownRebecs, StateVars)
            end;
        {{From, SendTime, Deadline}, checkTicket} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    StateVars_11 = case (StateVars#agent_statevars.attemptCount =:= 1) of
                        true ->
                            Sender_8 = self(),
                            spawn(fun() ->
                                receive after env:retryRequestPeriod() ->
                                    Sender_8 ! {{Sender_8, now(), inf}, findTicket, 2}
                                end
                            end),
                            StateVars;
                        false ->
                            StateVars_9 = StateVars#agent_statevars{attemptCount = 0},
                            Sender_10 = self(),
                            spawn(fun() ->
                                receive after env:newRequestPeriod() ->
                                    Sender_10 ! {{Sender_10, now(), inf}, findTicket, 1}
                                end
                            end),
                            StateVars_9
                    end,
                    agent(KnownRebecs, StateVars_11)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
