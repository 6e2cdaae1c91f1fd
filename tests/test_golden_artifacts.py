"""Exact dyadic results stay bit-identical: the SHA-256 of every artifact of a
few pinned transport runs, against digests recorded before the transport
kernels last changed.

The two configs have the shapes of the benchmark's transport workloads at
seed 1 (a 5-mode cascade searched over 555 signals; the doubling pair
simulated over 96 segments).  `remark-3.2` is left out because its samples
come from numpy's generator, and matrix configs because their last bits may
move by design.  A changed digest means a transport result changed; if the
change is intended, record the new digests with the reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from swlyap.cli import main

SEARCH = {
    "system": {
        "modes": [
            {"kind": "shift_amplify", "domain": [0.0, 1.0], "direction": "left",
             "amplify": [0.0, 4.0 ** -(j + 1)], "factor": 2.0 ** 0.5}
            for j in range(5)
        ],
        "norm": {"kind": "lp", "p": 2.0},
    },
    "state": {"domain": [0.0, 1.0],
              "breaks": [0.078125, 0.203125, 0.34375, 0.578125, 0.6875, 0.90625],
              "values": [2.75, -1.25, -2.25, 3.25, 0.75, 0.25, 1.75]},
    "family": {"dwells": [0.0625, 0.25], "max_switches": 2},
    "seed": 1,
}

_SIMULATE_MODES = ("1111001101011100101100110101110011111110100110101000"
                   "10000110110100011100111011010100000001111000")
SIMULATE = {
    "system": {
        "modes": [
            {"kind": "shift_amplify", "domain": [-1.0, 1.0], "direction": "left",
             "amplify": [-1.0, 0.0], "factor": 2.0},
            {"kind": "shift_amplify", "domain": [-1.0, 1.0], "direction": "right",
             "amplify": [0.0, 1.0], "factor": 2.0},
        ],
        "norm": {"kind": "lp", "p": 1.0},
    },
    "state": {"domain": [-1.0, 1.0],
              "breaks": [-0.84375, -0.59375, -0.3125, 0.15625, 0.375, 0.8125],
              "values": [3.25, -0.75, 0.25, -2.75, -1.75, -2.25, -1.25]},
    "signal": {"segments": [[int(m), 0.015625] for m in _SIMULATE_MODES], "tail": 1},
    "dt": 0.00390625,
    "horizon": 1.5,
    "seed": 1,
}

# (id, argv, config or None, {artifact: sha256})
GOLDEN = [
    ("worst-case-cascade", ["worst-case"], SEARCH, {
        "estimate.json": "937cd28aa26b6a9f175043c7b2390d7c36c167f4f40683687dda4b73c4d4aec8",
    }),
    ("simulate-doubling-pair", ["simulate"], SIMULATE, {
        "summary.json": "53045beaeae4ee80729dc5ee6dfa4a61fc8240ca1721d817edd6cedc8afe6ede",
        "trajectory.csv": "8027f2f6013af3a168c8cd7d950b32b7a537f73cffad5f6c7a0679c3062ad74c",
    }),
    ("example-2.1", ["reproduce", "example-2.1"], None, {
        "staircase.csv": "abe1ef57981e183201f6a76d77f6c095b50dce9cc29d62ec9c8195d90bd6fc21",
        "summary.json": "460e9db7f1f36a5d2f67699ee88d7815918412808bff8e4d66f76d38834a3395",
        "summary.txt": "9bb5b05309b480d24442565d2ad1be3f94286681f5b46b80e11bc909fd7db9b5",
    }),
    ("half-line-shift", ["reproduce", "half-line-shift"], None, {
        "summary.json": "0a3d09a0f0d42531823e94d798d9ca169b0e736f6f38d64a9d28a6a996c25c71",
        "summary.txt": "2202fb7e966ef7898ffd88508acbf7b56b8d475d59561b64bea190fa0129c3c4",
        "trajectory.csv": "99fa9fdc571f760b445b9a26fe1db75421623a7443d367acefa2088118c36bd2",
    }),
]


@pytest.mark.parametrize("argv, config, digests", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_artifacts_are_bit_identical(tmp_path, argv, config, digests):
    out = tmp_path / "out"
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main([*argv, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == digests
