-module(sink).
-export([start/0]).

-record(sink_knownrebecs, {}).
-record(sink_statevars, {}).

start() ->
    spawn(fun sink/0).

%% Stage 1: wait for references to the known rebecs.
sink() ->
    receive
        {} ->
            sink(#sink_knownrebecs{})
    end.

%% Stage 2: serve the initial message, then enter the serve loop.
sink(KnownRebecs) ->
    receive
        {{From, SendTime, Deadline}, initial} ->
            StateVars = #sink_statevars{},
            sink(KnownRebecs, StateVars)
    end.

%% Stage 3: serve messages forever.
sink(KnownRebecs, StateVars) ->
    receive
        {{From, SendTime, Deadline}, done, V} ->
            %% The deadline is checked right before the body runs;
            %% an expired message is purged unserved.
            case (Deadline =:= inf) orelse (now() =< Deadline) of
                false ->
                    sink(KnownRebecs, StateVars);
                true ->
                    sink(KnownRebecs, StateVars)
            end
    end.
