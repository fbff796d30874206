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
                    {StateVars_15, Last_16, Size_17} = case (N_3 > 2) of
                        true ->
                            Size_5 = (N_3 * 2),
                            StateVars_6 = StateVars#counter_statevars{total = (StateVars#counter_statevars.total + Size_5)},
                            Last_7 = Size_5,
                            {StateVars_11, Last_12} = case StateVars_6#counter_statevars.busy of
                                true ->
                                    Sender_8 = self(),
                                    spawn(fun() ->
                                        receive after 3 ->
                                            KnownRebecs#counter_knownrebecs.out ! {{Sender_8, now(), now() + 5}, done, Last_7}
                                        end
                                    end),
                                    {StateVars_6, Last_7};
                                false ->
                                    StateVars_9 = StateVars_6#counter_statevars{busy = true},
                                    Last_10 = (Last_7 + 1),
                                    {StateVars_9, Last_10}
                            end,
                            {StateVars_11, Last_12, Size_5};
                        false ->
                            Size_13 = 1,
                            Spare_14 = (N_3 + 1),
                            KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, Spare_14},
                            {StateVars, Last_4, Size_13}
                    end,
                    StateVars_20 = case (Size_17 > 1) of
                        true ->
                            StateVars_18 = StateVars_15#counter_statevars{total = (StateVars_15#counter_statevars.total - 1)},
                            Sender_19 = self(),
                            spawn(fun() ->
                                receive after Size_17 ->
                                    Sender_19 ! {{Sender_19, now(), inf}, step, Last_16}
                                end
                            end),
                            StateVars_18;
                        false ->
                            StateVars_15
                    end,
                    KnownRebecs#counter_knownrebecs.out ! {{self(), now(), inf}, done, StateVars_20#counter_statevars.total},
                    counter(KnownRebecs, StateVars_20)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
