-module(worker).
-export([start/0]).
-compile({no_auto_import, [now/0]}).

-record(worker_knownrebecs, {out}).
-record(worker_statevars, {done = 0}).

start() ->
    spawn(fun worker/0).

%% Stage 1: wait for references to the known rebecs.
worker() ->
    receive
        {Out_1} ->
            worker(#worker_knownrebecs{out = Out_1})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
worker(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #worker_statevars{},
            Sender_2 = self(),
            spawn(fun() ->
                receive after 2 ->
                    Sender_2 ! {{Sender_2, now(), inf}, work}
                end
            end),
            worker(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
worker(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, work} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    worker(KnownRebecs, StateVars);
                true ->
                    receive after 10 -> ok end,
                    StateVars_3 = StateVars#worker_statevars{done = 1},
                    Deadline_4 = now() + 4,
                    Sender_5 = self(),
                    spawn(fun() ->
                        receive after 15 ->
                            KnownRebecs#worker_knownrebecs.out ! {{Sender_5, now(), Deadline_4}, finished}
                        end
                    end),
                    worker(KnownRebecs, StateVars_3)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
