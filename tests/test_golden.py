"""Golden sha256 digests of the key-distribution bytes.

Every ``qkd-demon`` byte rests on ``SeedSequence`` seeding, the PCG64 raw
stream, the draw recipe stated in ``qkd.simulate`` and integer arithmetic,
so these digests should hold on any numpy build and any CPU. A runner that
disagrees has found a build on which that chain breaks: report it, do not
re-pin. The ``bc``, ``ot`` and search bytes move in their last bits between
BLAS kernels and SIMD dispatch levels, so they have no digest here; their
1e-12 pins in ``test_acceptance.py`` are the check across builds.
"""

from __future__ import annotations

import hashlib
import json
import math
import runpy
from pathlib import Path

import numpy as np

from qtwoparty import cli, qkd

ROOT = Path(__file__).resolve().parent.parent

ELEVEN = "0 9deg 18deg 27deg 36deg 45deg 54deg 63deg 72deg 81deg 90deg".split()

# the qkd-demon runs CI replays, with the output names CI gives them
CLI_RUNS = [
    ["qkd-demon", "--attack", "demon", "--n-pairs", "200000", "--seed", "3",
     "--trials-csv", "trials.csv", "--output", "qkd.json"],
    ["qkd-demon", "--attack", "demon", "--n-pairs", "50000", "--seed", "5",
     "--bob-angles", "0", "30deg", "60deg", "--trials-csv", "demon3.csv", "--output", "demon3.json"],
    ["qkd-demon", "--n-pairs", "20000", "--seed", "4", "--alice-angles", *ELEVEN,
     "--trials-csv", "honest.csv", "--output", "honest.json"],
]

CLI_DIGESTS = {
    "trials.csv": "09d2f0a831552000e00593bfb8fd6f6906895638f76d2efbdf73a1ee26e45165",
    "qkd.json": "cf873430eb2db5750dd321f6a889eb463851b4019acc7497b38703275475849a",
    "qkd.json.manifest.json": "397c17aedd1590468c8b5ec703569c3af709e95922955b57bd9c014864f464b9",
    "demon3.csv": "9d9a33e63de0f052dd5dbe881164aa6ea487f4c872a8f86608f973888e1da5a1",
    "demon3.json": "9c6e9cb8ab2802396b281c09e70dec7dfcc517f133c28df219f28ea96eeb56fc",
    "demon3.json.manifest.json": "4f0a41d222fcbcd50b724ef4cf3af6a4f8150d717fc410073fdaeae8a7f997b3",
    "honest.csv": "a93dd9a5b8b5a84d8d8847eaf134edea6a003808bdbf4790ecbf31e3a87de358",
    "honest.json": "23ae3200b8fffb9b8014921b355ccc7a6204b7c91125439106f40ffc535bcefe",
    "honest.json.manifest.json": "e82d4e5515faf997171d8d0f496b04aebe47fa0a1af53b8c1bc84a2067ef23a1",
}

DEMO_04_DIGEST = "56b8a384658542af2818aa564017188b93eb13c87aef0965f8032cc9c92dcc4c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_qkd_demon_outputs_and_manifests(tmp_path, monkeypatch):
    # relative names, so each manifest records the same paths on any runner
    monkeypatch.chdir(tmp_path)
    for argv in CLI_RUNS:
        assert cli.main(argv) == cli.EXIT_OK
    got = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == CLI_DIGESTS


def test_demo_04_stdout(capsys):
    runpy.run_path(str(ROOT / "demos" / "04_coincidence_demon.py"), run_name="__main__")
    assert _sha256(capsys.readouterr().out.encode()) == DEMO_04_DIGEST


SIDES = {
    1: (0.3,),
    3: (0.0, math.pi / 6, math.pi / 3),
    11: tuple(k * math.pi / 20 for k in range(11)),
}

# 2**32 mod 54161 of the 2**32 values of a uint32 half are rejected, so a
# bounded draw over this side rejects about once per 79 000 halves
WIDE_SIDE = tuple(k * 1e-4 for k in range(54161))


def _rejects(seed: int, n: int, start: int) -> bool:
    """Whether a bounded draw over WIDE_SIDE rejects one of halves [start, start + n)."""
    words = np.random.default_rng(seed).bit_generator.random_raw((start + n + 1) // 2)
    halves = words.astype("<u8").view("<u4")[start:start + n]
    return bool((halves * np.uint32(len(WIDE_SIDE)) < 2**32 % len(WIDE_SIDE)).any())


def _sweep():
    """Configs over both attacks, 1-, 3- and 11-setting sides, odd n and chunk seams."""
    seams = (qkd.CHUNK_ROWS - 1, qkd.CHUNK_ROWS, qkd.CHUNK_ROWS + 1, 2 * qkd.CHUNK_ROWS + 1)
    for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON):
        for na, alice in SIDES.items():
            for nb, bob in SIDES.items():
                for n in (1, 7, 1001, *seams):
                    yield qkd.QkdConfig(n_pairs=n, alice_settings=alice, bob_settings=bob,
                                        visibility=0.37 if n % 2 else 1.0, attack=attack,
                                        seed=n + 16 * na + nb)
    # a wide sender's side rejects a half of the first column at seed 2, and
    # a wide receiver's side one of the second column at seed 4, so every
    # later column starts past a rejection (the receiver's side is honest:
    # the interceptor's tables grow as its square)
    yield qkd.QkdConfig(n_pairs=60_000, alice_settings=WIDE_SIDE, attack=qkd.ATTACK_DEMON, seed=2)
    yield qkd.QkdConfig(n_pairs=60_000, bob_settings=WIDE_SIDE, seed=4)


SWEEP_DIGEST = "6afeaecab9227e495761342934ecf8a9fdd9cc779161d281a0931be80ddb2ac4"


def test_simulate_sweep():
    # stats JSON of a kept and a stats-only run, and the kept key's dtype
    # and bytes, of every config in order
    assert _rejects(2, 60_000, 0) and _rejects(4, 60_000, 60_000)
    h = hashlib.sha256()
    for config in _sweep():
        stats, trials = qkd.simulate(config, keep_trials=True)
        alone, none = qkd.simulate(config)
        assert none is None
        text = json.dumps(stats.to_json_dict(), sort_keys=True)
        assert json.dumps(alone.to_json_dict(), sort_keys=True) == text
        h.update(text.encode())
        h.update(trials.key.dtype.str.encode())
        h.update(trials.key.tobytes())
    assert h.hexdigest() == SWEEP_DIGEST
