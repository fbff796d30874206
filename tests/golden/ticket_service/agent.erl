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
        {Ts1, Ts2} ->
            agent(#agent_knownrebecs{ts1 = Ts1, ts2 = Ts2})
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
        {{From, SendTime, Deadline}, findTicket, Which} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    StateVars1 = StateVars#agent_statevars{attemptCount = (StateVars#agent_statevars.attemptCount + 1)},
                    StateVars2 = StateVars1#agent_statevars{token = (StateVars1#agent_statevars.token + 1)},
                    case (Which =:= 1) of
                        true ->
                            KnownRebecs#agent_knownrebecs.ts1 ! {{self(), now(), now() + env:requestDeadline()}, requestTicket, StateVars2#agent_statevars.token},
                            ok;
                        false ->
                            KnownRebecs#agent_knownrebecs.ts2 ! {{self(), now(), now() + env:requestDeadline()}, requestTicket, StateVars2#agent_statevars.token},
                            ok
                    end,
                    Sender = self(),
                    spawn(fun() ->
                        receive after env:checkIssuedPeriod() ->
                            Sender ! {{Sender, now(), inf}, checkTicket}
                        end
                    end),
                    agent(KnownRebecs, StateVars2)
            end;
        {{From, SendTime, Deadline}, replyTicket, Tok} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    agent(KnownRebecs, StateVars);
                true ->
                    case (Tok =:= StateVars#agent_statevars.token) of
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
                    Sender = self(),
                    StateVars4 = case (StateVars#agent_statevars.attemptCount =:= 1) of
                        true ->
                            spawn(fun() ->
                                receive after env:retryRequestPeriod() ->
                                    Sender ! {{Sender, now(), inf}, findTicket, 2}
                                end
                            end),
                            StateVars;
                        false ->
                            StateVars3 = StateVars#agent_statevars{attemptCount = 0},
                            spawn(fun() ->
                                receive after env:newRequestPeriod() ->
                                    Sender ! {{Sender, now(), inf}, findTicket, 1}
                                end
                            end),
                            StateVars3
                    end,
                    agent(KnownRebecs, StateVars4)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
