-module(main).
-export([main/0]).

%% Spawn every rebec, wire the known rebecs, kick off the initial
%% messages.
main() ->
    C = counter:start(),
    D = counter:start(),
    K = sink:start(),
    C ! {K},
    D ! {K},
    K ! {},
    C ! {{main, now(), inf}, initial, 5},
    D ! {{main, now(), inf}, initial},
    K ! {{main, now(), inf}, initial},
    ok.
