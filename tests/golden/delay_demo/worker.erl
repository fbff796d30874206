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
        {Out} ->
            worker(#worker_knownrebecs{out = Out})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
worker(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #worker_statevars{},
            Sender = self(),
            spawn(fun() ->
                receive after 2 ->
                    Sender ! {{Sender, now(), inf}, work}
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
                    StateVars1 = StateVars#worker_statevars{done = 1},
                    Sender = self(),
                    spawn(fun() ->
                        receive after 15 ->
                            KnownRebecs#worker_knownrebecs.out ! {{Sender, now(), now() + 4}, finished}
                        end
                    end),
                    worker(KnownRebecs, StateVars1)
            end
    end.

now() -> erlang:monotonic_time(millisecond).
