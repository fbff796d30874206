-module(counter).
-export([start/0]).
-compile({no_auto_import, [now/0]}).

-record(counter_knownrebecs, {out}).
-record(counter_statevars, {total = 0, busy = false}).

start() ->
    spawn(fun counter/0).

%% Stage 1: wait for references to the known rebecs.
counter() ->
    receive
        {Out} ->
            counter(#counter_knownrebecs{out = Out})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
counter(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #counter_statevars{},
            self() ! {{self(), now(), inf}, step, 1},
            counter(KnownRebecs, StateVars);
        {{From, SendTime, Deadline}, initial, TotalInit} ->
            StateVars = #counter_statevars{total = TotalInit},
            self() ! {{self(), now(), inf}, step, 1},
            counter(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
counter(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, step, N} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    counter(KnownRebecs, StateVars);
                true ->
                    Last1 = N,
                    Sender = self(),
                    {StateVars11, Last12, Size13} = case (N > 2) of
                        true ->
                            Size2 = (N * 2),
                            StateVars3 = StateVars#counter_statevars{total = (StateVars#counter_statevars.total + Size2)},
                            Last4 = Size2,
                            {StateVars7, Last8} = case StateVars3#counter_statevars.busy of
                                true ->
                                    spawn(fun() ->
                                        receive after 3 ->
                                            KnownRebecs#counter_knownrebecs.out ! {{Sender, now(), now() + 5}, done, Last4}
                                        end
                                    end),
                                    {StateVars3, Last4};
                                false ->
                                    StateVars5 = StateVars3#counter_statevars{busy = true},
                                    Last6 = (Last4 + 1),
                                    {StateVars5, Last6}
                            end,
                            {StateVars7, Last8, Size2};
                        false ->
                            Size9 = 1,
                            Spare10 = (N + 1),
                            KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, Spare10},
                            {StateVars, Last1, Size9}
                    end,
                    StateVars15 = case (Size13 > 1) of
                        true ->
                            StateVars14 = StateVars11#counter_statevars{total = (StateVars11#counter_statevars.total - 1)},
                            spawn(fun() ->
                                receive after Size13 ->
                                    Sender ! {{Sender, now(), inf}, step, Last12}
                                end
                            end),
                            StateVars14;
                        false ->
                            StateVars11
                    end,
                    KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, StateVars15#counter_statevars.total},
                    counter(KnownRebecs, StateVars15)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
