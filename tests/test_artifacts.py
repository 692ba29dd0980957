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
            "summary.csv": "c257ebe931f6b39878e2ee0c0c871773ad260aa5c3b28120f267819f5f8a73ef",
            "tiers.csv": "9e3ed0e387d4d65959bb625d997acaf03108ad8ed5f0a5f731c3fca7d87ba498",
            "topics.csv": "285e64f3954e08318505623ddabf12d15b0a04b5c5082380e103381df4427863",
        },
    ),
    "bridge_sweep": (
        ["run", "bridge_sweep.yaml"],
        {
            "summary.csv": "77874cfd44872b4121a35834cc580e2d110212675d9259a3faff504e70b11b4c",
            "tiers.csv": "adb1ecaa0a9986ad216dc1bb8821c62ff049ead48b216feb313b6600e3b3114c",
            "topics.csv": "d528e7dc035a2a9156215a1e9605e2c823b17ac0e57c8643d7b9e4b3355fbd35",
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
            "mmcf.csv": "7dd82f6b0c7d8139fc523d1ca09592848cc055cfead7dc825da6c30f837b85d4",
            "summary.csv": "8e067e5629b1ec35a52639cdc8a5e5dfcd8c533d6f03c721c4ec216d735c3d36",
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
            "agents_2/summary.csv": "3a0bd17a7861fa7f580ee08d1654cec53d2fd355279770ba0f85b2f3b79e8b98",
            "agents_2/tiers.csv": "825649f7bcee6b7a30fcf0fba643b56d5271f3eb31b06eb3d1cc1e44365e3777",
            "agents_2/topics.csv": "3bcef8a5a7eca445cee044d8a6733d72f1a0fdaadba54c6417cc9dfb2c4d65df",
            "agents_3/summary.csv": "27b55895fa2c1c531b0b97dd1830fcc368ca72e661f5fa04e276784aa69dd84c",
            "agents_3/tiers.csv": "adb1ecaa0a9986ad216dc1bb8821c62ff049ead48b216feb313b6600e3b3114c",
            "agents_3/topics.csv": "d528e7dc035a2a9156215a1e9605e2c823b17ac0e57c8643d7b9e4b3355fbd35",
            "agents_5/summary.csv": "d02660004f704a4f48c635a696f10ae618f2d415ab44e7aad0a27d3a26d987ec",
            "agents_5/tiers.csv": "49a1af9cd505bcb8389525e849b92a5b2abbdb563a56d33e0f3cb4e9388ce433",
            "agents_5/topics.csv": "6786820d10a3458e9f0964c8f37d2b94746a6e32416d0950a40e682d081ac9a8",
            "sweep.csv": "a3fbdb04ea5769a9444ddc2473b6b53f8cf8d443f355905218bee750662c7166",
        },
    ),
    "sweep agents20": (
        ["sweep", "agents20.yaml", "--counts", "50,100"],
        {
            "agents_100/summary.csv": "7ec3d89ea7b25b10ba80c5e13598480dc4ed2329766d8c9f958a4f21133d3119",
            "agents_100/tiers.csv": "8452cd641f2395bf65ebb73e1e8fa68aea7efc3c11c88869b5a102cf9bcc7bf2",
            "agents_100/topics.csv": "543f216aff4c0fbf9cc6a8a7ae6ae3f188a3d100c01af839bf35c0b92f23c69c",
            "agents_50/summary.csv": "005f8d2e441220101e7373ddd8cdf872e9c580c42b8fc2fc21f083ce634a9c5f",
            "agents_50/tiers.csv": "765af071b890d66effec0146815b116e7e34bdf682268a53cef243645eb34182",
            "agents_50/topics.csv": "3276e1f111a2ec834ca2ec4e91351c81983a66a6c960a11d47fec2ac85848775",
            "sweep.csv": "a74b1ecd43c42403afc8e35c458adee6e19f1de6c36fc25a84bf63dc71b761e8",
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
