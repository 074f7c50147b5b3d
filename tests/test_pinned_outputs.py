"""Seeded `weaklab run` outputs, pinned by the sha256 of their bytes.

Each config runs at seeds 1 and 2, each at one, two and three workers;
its exit code and the digests of its CSV and JSON must equal those in
DIGESTS.  A change that moves any seeded
output, in any digit, fails here, so "byte-identical to the previous
commit" is checked by the suite rather than by hand.  A change that moves
outputs on purpose re-records the digests and says which moved and why.

The configs are one per study shape of the benchmark's cli-mix workload,
the two of acceptance criterion 10, a romberg run on a constant model
driven by two Brownian motions, a tailbound run on the kernel pi, and the
two weak-rate paths the others leave out: a sample count from target_ci,
and a Romberg reference for a model without an exact density.  The
digests were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux;
other versions may round differently.
`PYTHONPATH=src python tests/test_pinned_outputs.py` prints the digests
of the code it imports, in the form of DIGESTS.
"""

import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from weaklab import cli

OU = {"model": "ou", "theta": 1.0, "sigma": 1.0}
GBM = {"model": "gbm", "mu": 0.1, "sigma": 0.2}

CONFIGS = {
    "weak-rate-deterministic": {
        "study": "weak-rate", "model": {"model": "gbm", "mu": 0.12,
                                        "sigma": 0.18},
        "f": "identity", "x": 1.05, "t": 1.0, "n_ladder": [8, 16, 32, 64],
        "deterministic": True},
    "weak-rate-mc": {
        "study": "weak-rate", "model": {"model": "ou", "theta": 2.75,
                                        "sigma": 1.0},
        "f": "square", "x": 0.75, "t": 1.0, "n_ladder": [1, 2, 3, 4],
        "N": 40000},
    "moments": {
        "study": "moments", "model": {"model": "tanh_vol", "a0": 0.05,
                                      "b0": 0.2, "c0": 0.1},
        "q": 4, "t_grid": [0.5, 1.0], "x_grid": [0.0, 1.5],
        "n_ladder": [4, 16], "N": 20000},
    "density": {
        "study": "density", "model": OU, "t_grid": [0.5],
        "x_grid": [-0.6, 0.1, 0.7], "y_grid": [-0.8, -0.2, 0.4], "n": 256},
    "greeks": {
        "study": "greeks", "model": {"model": "ou", "theta": 1.75,
                                     "sigma": 0.5},
        "payoff": "identity", "v": math.exp(2.0), "t": 1.0,
        "n_ladder": [1, 2, 4, 8], "N": 16384},
    "bias-limit": {
        "study": "bias-limit", "model": OU, "f": "square", "x": 1.0,
        "t": 1.0, "n_ladder": [8, 16, 32], "N": 16384, "tolerance": 0.02},
    "tailbound": {
        "study": "tailbound", "model": OU, "kernel": "p", "l": 0,
        "t_grid": [0.25, 0.5, 1.0], "x_grid": [-1.2, 0.3, 1.1],
        "y_grid": [-0.9, 0.0, 1.4]},
    # integer grid values check that pi is read at the float points
    "tailbound-pi": {
        "study": "tailbound", "model": OU, "kernel": "pi", "l": 1,
        "t_grid": [0.5, 1], "x_grid": [-1, 0.25], "y_grid": [0.0, 1.5]},
    "criterion-10-weak-rate": {
        "study": "weak-rate", "model": GBM, "f": "identity", "x": 1.0,
        "t": 1.0, "n_ladder": [8, 16, 32, 64], "deterministic": True},
    "criterion-10-moments": {
        "study": "moments", "model": OU, "q": 4, "t_grid": [0.5, 1.0],
        "x_grid": [0.0, 1.0], "n_ladder": [4, 16], "N": 20000},
    "romberg-two-noises": {
        "study": "romberg", "model": {"model": "constant", "b": [0.1],
                                      "s": [[0.3, 0.4]]},
        "f": "square", "x": 0.4, "t": 1.0, "n_ladder": [2, 4, 8, 16],
        "N": 4096},
    "weak-rate-target-ci": {
        "study": "weak-rate", "model": {"model": "ou", "theta": 2.75,
                                        "sigma": 1.0},
        "f": "square", "x": 0.75, "t": 1.0, "n_ladder": [1, 2, 3, 4],
        "target_ci": 0.01},
    # no exact density: the truth is reference_value's Romberg estimate
    "weak-rate-romberg-reference": {
        "study": "weak-rate", "model": {"model": "tanh_vol", "a0": 0.05,
                                        "b0": 1.0, "c0": 0.9},
        "f": "square", "x": 0.0, "t": 1.0, "n_ladder": [1, 2, 3, 4],
        "N": 40000},
}
SEEDS = (1, 2)

# (config, seed): (exit code, sha256 of the CSV, sha256 of the JSON)
DIGESTS = {
    ("weak-rate-deterministic", 1): (
        0, "b2553f97adca1ef129bc61a52a20ae5d7b045cb2e8db214627ba7d6c5518597c",
        "2892f268d2c6b0ece7f624030c6ea89c54ec97eb3fc8d5f9ccd44fb862e87b86"),
    ("weak-rate-deterministic", 2): (
        0, "b2553f97adca1ef129bc61a52a20ae5d7b045cb2e8db214627ba7d6c5518597c",
        "84fccca747a76e9dacb838b9bc50aa1f8f5c4bd6c514654830c19cee28005269"),
    ("weak-rate-mc", 1): (
        0, "82b035b6d9b4d62df62a9baefdf243bdfbdfd1ab0655b94ec2fb2a5ce0ebad08",
        "e1ccc437b3ce427a6527a2790b3e7a45f7844ea122dea95828a2ff1005ac70f6"),
    ("weak-rate-mc", 2): (
        0, "2e0934de5fa9a6358108fb4e61d290d659fbf52c4f471225a8a78a91748ea19f",
        "46d385b3f82f55a1a9387515901c32e497867c08f3bdcd9ec8d4469b5f3b5386"),
    ("moments", 1): (
        0, "cd8d8f165ca1b7750c61523ce2f62f29bf0a99b79da30f331bc8bcc8c8933dc4",
        "a62e5435786aa1334622cfddc100e5616f349267513d5ab199549807461224ff"),
    ("moments", 2): (
        0, "48ce9fecc0986dc264b582f87b739bf301c2b57e6ee592d6e8c7a02bd76e2406",
        "0245b3d301b93f40d220ff9a6367d1969d3ad4c9e64f0c337ec334c1e0089af6"),
    ("density", 1): (
        0, "8d5ced7047a65d5eb8e18ba2efc4e2a4704e7e612d54b4a0bafb1519a5417619",
        "c8d21e5bb51e335778752313cd7aabd3762876d34e4ecfa27df45ec16261aabc"),
    ("density", 2): (
        0, "8d5ced7047a65d5eb8e18ba2efc4e2a4704e7e612d54b4a0bafb1519a5417619",
        "1afa1fdd208408d7aa9b9ceb1f954df81be47710de0d454e92e820fbaed0df7b"),
    ("greeks", 1): (
        0, "8da8a9abcc8a98dbfbd90950da75819c0176c1050e9c594c0e31947ff1628dd2",
        "e12d602df5fec8ee05c72fb5a51e7877af0454cb675110bd7b1a0c70c32f46db"),
    ("greeks", 2): (
        0, "a049159eda3953b7cf5c244eaa380ccb849083fe2f131666e1f86c180efd8193",
        "ff89e474c78194ea763dd2598a958a875a4c9ccd31277e204c51c0df4e9e89ea"),
    ("bias-limit", 1): (
        0, "114eec12a3142926da884b25dd988dde343226741b8816affdc85015c141ca50",
        "fc01d1a0ecdaa83687ff83b8f58aae70ec1d10d223b9a59e7619d11fe2ec2b2e"),
    ("bias-limit", 2): (
        0, "fdd5a2f45211430577fbb599dc6873a77260c89a9e143229cdd64b7f3cf2fc5d",
        "4ae414b72fbafcce72498038173f662cc6d821e208a5d033a719e93f02b2dbc9"),
    ("tailbound", 1): (
        0, "0a0db4c0a3f6d17beb582eb72375f2fa55bd135caab4cb27239e81c356bcfcb8",
        "44f5f41206ea5d6f89b99aa6ca2c195cdda61e8bdfc999fc593bb42d05e68bec"),
    ("tailbound", 2): (
        0, "0a0db4c0a3f6d17beb582eb72375f2fa55bd135caab4cb27239e81c356bcfcb8",
        "b5f6016d18ae20f9e11d4dc6c2d5dd1e345e353105596564935e5dfc7d87da15"),
    ("tailbound-pi", 1): (
        0, "b530d38adf4bce37d8c3022cd55a0e1bd3cfc632b4bc80edf916740862193008",
        "c3365f52c41388411cc6bf49958693fd8a910419b78c836ecde05ade93998ee7"),
    ("tailbound-pi", 2): (
        0, "b530d38adf4bce37d8c3022cd55a0e1bd3cfc632b4bc80edf916740862193008",
        "30929383b8d4cf74bedc892892ea218b84cf3175d268df8ba6960d2075d8d103"),
    ("criterion-10-weak-rate", 1): (
        0, "297409ea43d206f0d89f7b70cc7868f6df02ac5dfffce6c9acb895a0ac300eb8",
        "2a074764b5dc3c4d607de9339b644f98259d5873fbc1a3649395a0f42900e7f2"),
    ("criterion-10-weak-rate", 2): (
        0, "297409ea43d206f0d89f7b70cc7868f6df02ac5dfffce6c9acb895a0ac300eb8",
        "911267088b695aebf5424f03838f319251cf8ec240ee7f51da524a2ebaf1a157"),
    ("criterion-10-moments", 1): (
        0, "47c700a89abc7088c674ca0e73b2c2a3fb0901449591398b50d8879e8855e7f4",
        "83c159eb78a6f5a4d186b9d187caa38602d564371488dfbaacfd6f6974874d48"),
    ("criterion-10-moments", 2): (
        0, "63732f1293784342dfdf870922e0d5126f46f4a00ab07b4edc440a468f5e85c6",
        "7bcc0e4727aae41b00267a0be8fd1b31f300158256a98623c96bcafbc54505e6"),
    ("romberg-two-noises", 1): (
        0, "7a34f184d0d4c88dcb140d5156452eb36f18c9e2b65ba7ee5aa6f03adbc83c62",
        "4c61110306aa17a6ffa2f4071a7f233f84b0a7cccd3b1764fc68815bb719049e"),
    ("romberg-two-noises", 2): (
        0, "6689c455b24447679ea66176c9eef7187e25da8e73c850e40982920069816a9a",
        "4b31372a3f210a6d44ad3f548edeaf9eb545f067ea8ddc0b87eba418292ba988"),
    ("weak-rate-target-ci", 1): (
        0, "6cc6f5f796f2487faa66fd6df9ffc494c65b643ff7f920a28ebd6de8bfcbdcb3",
        "7b0f017b284d4261136659194fcfc182dcec74b19a068b1c3fc8f98df6ec982f"),
    ("weak-rate-target-ci", 2): (
        0, "43ada8a80d049025481a3e90b87ce9e5aa4af10b459e091d3bba514fe3b5986a",
        "b3ea4cbd5930e1e9fa72cd66b7a742090205686e7a3fa97edaa0e2f445bf7072"),
    ("weak-rate-romberg-reference", 1): (
        0, "e21a16adb812a0607a993912e342497487c1b2d65d66e72e23fbee01189d3500",
        "2dfaaee47580b04bd798a73201295da9461a8a08dbd0292871b3cd6725b82fcd"),
    ("weak-rate-romberg-reference", 2): (
        0, "6e57efde06dca8817660030567f942b20ad8312b7ec61fbf759f179838b03c30",
        "b08014a8b91ff01734c356460a4f61c047087a2b68a6ab80e9eff09f1cc19d33"),
}


def run(name: str, seed: int, workdir: Path) -> tuple:
    cfg = dict(CONFIGS[name], seed=seed,
               output_csv=str(workdir / "rows.csv"),
               output_json=str(workdir / "summary.json"))
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["run", str(path)])
    return (rc,) + tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                         for p in (cfg["output_csv"], cfg["output_json"]))


@pytest.mark.parametrize("name, seed", list(DIGESTS))
def test_seeded_outputs_match_their_digests(monkeypatch, tmp_path, name,
                                            seed):
    # whatever the host's worker count: three ranges start inside
    # Philox's blocks of four uniforms
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("WEAKLAB_WORKERS", workers)
        (tmp_path / workers).mkdir()  # no run reads another's files
        assert run(name, seed, tmp_path / workers) == DIGESTS[name, seed], \
            workers


def test_every_config_is_pinned():
    assert set(DIGESTS) == {(n, s) for n in CONFIGS for s in SEEDS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        found = {(n, s): run(n, s, Path(tmp)) for n in CONFIGS for s in SEEDS}
    print("DIGESTS = {")
    for (name, seed), (rc, csv_sha, json_sha) in found.items():
        print(f'    ("{name}", {seed}): (\n        {rc}, "{csv_sha}",\n'
              f'        "{json_sha}"),')
    print("}")
