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
        {Out_1} ->
            counter(#counter_knownrebecs{out = Out_1})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
counter(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #counter_statevars{},
            self() ! {{self(), now(), inf}, step, 1},
            counter(KnownRebecs, StateVars);
        {{From, SendTime, Deadline}, initial, Total_2} ->
            StateVars = #counter_statevars{total = Total_2},
            self() ! {{self(), now(), inf}, step, 1},
            counter(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
counter(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, step, N_3} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    counter(KnownRebecs, StateVars);
                true ->
                    Last_4 = N_3,
                    {StateVars_16, Last_17, Size_18} = case (N_3 > 2) of
                        true ->
                            Size_5 = (N_3 * 2),
                            StateVars_6 = StateVars#counter_statevars{total = (StateVars#counter_statevars.total + Size_5)},
                            Last_7 = Size_5,
                            {StateVars_12, Last_13} = case StateVars_6#counter_statevars.busy of
                                true ->
                                    Deadline_8 = now() + 5,
                                    Sender_9 = self(),
                                    spawn(fun() ->
                                        receive after 3 ->
                                            KnownRebecs#counter_knownrebecs.out ! {{Sender_9, now(), Deadline_8}, done, Last_7}
                                        end
                                    end),
                                    {StateVars_6, Last_7};
                                false ->
                                    StateVars_10 = StateVars_6#counter_statevars{busy = true},
                                    Last_11 = (Last_7 + 1),
                                    {StateVars_10, Last_11}
                            end,
                            {StateVars_12, Last_13, Size_5};
                        false ->
                            Size_14 = 1,
                            Spare_15 = (N_3 + 1),
                            KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, Spare_15},
                            {StateVars, Last_4, Size_14}
                    end,
                    StateVars_21 = case (Size_18 > 1) of
                        true ->
                            StateVars_19 = StateVars_16#counter_statevars{total = (StateVars_16#counter_statevars.total - 1)},
                            Sender_20 = self(),
                            spawn(fun() ->
                                receive after Size_18 ->
                                    Sender_20 ! {{Sender_20, now(), inf}, step, Last_17}
                                end
                            end),
                            StateVars_19;
                        false ->
                            StateVars_16
                    end,
                    KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, StateVars_21#counter_statevars.total},
                    counter(KnownRebecs, StateVars_21)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
