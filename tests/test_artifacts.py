"""Pinned SHA-256 digests of the CSV artifacts of every shipped run.

Every CLI run writes the same bytes on any IEEE 754 host, sync runs included
(twin sync computes on plain floats, so no BLAS kernel is involved): a change
to the simulator that moves one of these digests changes what a run reports.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from twinbridge.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# name: ([command, scenario file, flags...], {CSV path under --out-dir: SHA-256})
RUNS = {
    "bridge_loss": (
        ["run", "bridge_loss.yaml"],
        {
            "summary.csv": "a49e0e3f0a24b7111cf62a581b2b1c67874a7c2c7921a15cf0fa1f50922f87c6",
            "tiers.csv": "c8de678f8eb4738d098bfa23db0b21b3891e0a27576c0991f28a988b2e13fbfb",
            "topics.csv": "8d4e847004a05b78f6944a69664aa6d645048d70a4449834155d217a09b65d37",
        },
    ),
    "bridge_sweep": (
        ["run", "bridge_sweep.yaml"],
        {
            "summary.csv": "217a1c736d56f691fe9b48bfe2c19bc6e7e589257377a331e065121e5307d2e7",
            "tiers.csv": "ee6ed85db79bec83db93070099ba0fe0ea2e4c3c9fb7ae1ca4bd99e0c2db45ec",
            "topics.csv": "341ed6936b281c9a17357fd28b96276f11864823ff0da520092dca727e272bd9",
        },
    ),
    "agents20": (
        ["run", "agents20.yaml"],
        {
            "summary.csv": "827c7ac43bf98c17e69ca1b302f83f7f70397f7986c324bce224b95a632517da",
            "tiers.csv": "21a162dad228806cf81d077214e0842425c9ed9022e1e825ac8bcb72cbfd7a3f",
            "topics.csv": "3f8a1f136269dbdb1057ff2f9e3363ba7ce442d9fb05a2437936ca27750e333d",
        },
    ),
    "mmcf_default": (
        ["run", "mmcf_default.yaml"],
        {
            "mmcf.csv": "b1510cef9463ba11dbe784e7a82d28be47d82446fa2a6ca82a0c0679e7f5651d",
            "summary.csv": "b7f710b0778cd337826d8b3031d87424dcab7bb9db19389684006e439052420f",
            "tiers.csv": "2ac12a1b56a65b7afc14819324892277353bf80d67b657e3d2b12d209383ce6a",
            "topics.csv": "8fcfa29079f055b622affee3efd519ff962853c621549e4c2afe239c3c7c153c",
        },
    ),
    "sync_default": (
        ["run", "sync_default.yaml"],
        {
            "summary.csv": "73979ad5359914e7bf1484ca04fa96265356bc7280b1500b0d91e1eae0dc114e",
            "sync.csv": "ec3dcca09a1db58be5d3e7f1576dafdd21b559de2baa133d296384cb2b8a9b55",
            "tiers.csv": "fe43dc6cf31582aa9f6343072d7746fd7c63cfa71126fb793dfc8095920f831e",
            "topics.csv": "233356234dc0d3ef45e360fa1a1b7e156960adc259fbb0036090247053481f29",
        },
    ),
    "sync_disconnect": (
        ["run", "sync_disconnect.yaml"],
        {
            "summary.csv": "c5a49f9305a0f4409737cdaf7ff8a0e5e8f8ba44d82b77116abe776229497e47",
            "sync.csv": "3d6244de3846af8e0732e0688df82ccf0372b8ef14cd5b2c0823f6cde5b4b172",
            "tiers.csv": "fe43dc6cf31582aa9f6343072d7746fd7c63cfa71126fb793dfc8095920f831e",
            "topics.csv": "233356234dc0d3ef45e360fa1a1b7e156960adc259fbb0036090247053481f29",
        },
    ),
    "sync_latency200": (
        ["run", "sync_latency200.yaml"],
        {
            "summary.csv": "5eb75e286b2b53738212f4a683e3f70d9bc786d38d8154a28d8003d34f381bba",
            "sync.csv": "1b09f8234f767855fd46ba80a332192aa41890a5d6e74acbad5a90fab2d9ea37",
            "tiers.csv": "fe43dc6cf31582aa9f6343072d7746fd7c63cfa71126fb793dfc8095920f831e",
            "topics.csv": "233356234dc0d3ef45e360fa1a1b7e156960adc259fbb0036090247053481f29",
        },
    ),
    "bridge_loss --baseline": (
        ["run", "bridge_loss.yaml", "--baseline"],
        {
            "summary.csv": "6d29bad8d6e2623c0e5036fe817083b5ff02e7573a79623a3554c30f611cd0ce",
            "tiers.csv": "c11b25b66e29a5f2d45c2fb2b42b0dbec289d8023c2d4e5762e1aad822df57b5",
            "topics.csv": "d53b3c3e4d4eda281b641f4177e47a0349cbfc350ee0b0cd910acdc073988774",
        },
    ),
    "bridge_sweep --baseline": (
        ["run", "bridge_sweep.yaml", "--baseline"],
        {
            "summary.csv": "986254ddcb70e8b491f86adbd5c904b78a21b2ec7f8bd26d82f4f2cb40fa431e",
            "tiers.csv": "b9f0714d5e51e0037a53e8bb2c69c801371073b53a1d6ccb968a6ed2f1cce14c",
            "topics.csv": "18c68cd385ccdc366d6ab629e0d8899056583c0057adbeed91984c4148649dc6",
        },
    ),
    "agents20 --baseline": (
        ["run", "agents20.yaml", "--baseline"],
        {
            "summary.csv": "88ed2a1fbd0ffa45d384fdb7ec6b89051899ebd66e02e5dd7d0d861219f5f4d3",
            "tiers.csv": "add8cf4ce0d903350cb79d53c2f4e74f354bfc29b048d21171aa93ca5eaed0fd",
            "topics.csv": "a0886f02a3804fa1ec09d983bb3fd6dd4982c1a0f4a790628387b791368078a6",
        },
    ),
    "sweep bridge_sweep": (
        ["sweep", "bridge_sweep.yaml", "--counts", "2,3,5"],
        {
            "agents_2/summary.csv": "3ea24147f1adba74eebba834c3fa35e7449c4ff6a0fab45e0f5d955a085bb9f7",
            "agents_2/tiers.csv": "afcf1ecf99bb5d6e4ea02a2ba6662e246567517b13309997b0037187bc07cf3d",
            "agents_2/topics.csv": "d64a5d8f67a07ceaea73b8a65aa9fb17305b3a506820e787fcc3d0fc2ad11da9",
            "agents_3/summary.csv": "6f872131841ab27ca9ad6c408ae6f922aaa7ad3a30c078678e9f4597e5356372",
            "agents_3/tiers.csv": "ee6ed85db79bec83db93070099ba0fe0ea2e4c3c9fb7ae1ca4bd99e0c2db45ec",
            "agents_3/topics.csv": "341ed6936b281c9a17357fd28b96276f11864823ff0da520092dca727e272bd9",
            "agents_5/summary.csv": "d02660004f704a4f48c635a696f10ae618f2d415ab44e7aad0a27d3a26d987ec",
            "agents_5/tiers.csv": "49a1af9cd505bcb8389525e849b92a5b2abbdb563a56d33e0f3cb4e9388ce433",
            "agents_5/topics.csv": "6786820d10a3458e9f0964c8f37d2b94746a6e32416d0950a40e682d081ac9a8",
            "sweep.csv": "228fe3a147fad7f1af7fd66e0f593c6c15266c0e20cc78aee5752f35942d4f00",
        },
    ),
    "sweep agents20": (
        ["sweep", "agents20.yaml", "--counts", "50,100"],
        {
            "agents_100/summary.csv": "09aa7925abae45dcb8af77cfe5a665a48527c9cae9718319fff4e8df26299e68",
            "agents_100/tiers.csv": "28b32d67825e212ad9e08a7919d5790437930ee3cf1a3f9b83294cb43401f6a4",
            "agents_100/topics.csv": "693a7b9b9c05ce5f5018357dc7e82b12a10b86f8a01db6645f765ef41b6f8d53",
            "agents_50/summary.csv": "005f8d2e441220101e7373ddd8cdf872e9c580c42b8fc2fc21f083ce634a9c5f",
            "agents_50/tiers.csv": "765af071b890d66effec0146815b116e7e34bdf682268a53cef243645eb34182",
            "agents_50/topics.csv": "3276e1f111a2ec834ca2ec4e91351c81983a66a6c960a11d47fec2ac85848775",
            "sweep.csv": "23fc12499549626afeb0f3bfae0ee927156b15e6ec8e12d35a1ca665de8c4393",
        },
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_artifact_digests_are_pinned(tmp_path, name):
    (command, scenario, *flags), digests = RUNS[name]
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, [command, str(SCENARIOS / scenario), *flags, "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))
    assert written == sorted(digests)
    for rel, digest in digests.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
