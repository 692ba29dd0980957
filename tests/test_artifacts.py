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
            "summary.csv": "cff61f5844ab9d593b30fe454c52ac8600b9ffc23e4292ccb144501d1c2a0ee6",
            "tiers.csv": "55ca7eaee0c94dd72ad8f9252d7cdce6b5d4bdc5aa5ddd272db49c424678792d",
            "topics.csv": "6be0b7428455d1463c287ebb1e4d953a993cf82e67e63c4afcfa164d5041e4aa",
        },
    ),
    "bridge_outage": (
        ["run", "bridge_outage.yaml"],
        {
            "summary.csv": "55703132678454bf1d9803c112246a69283e26d1cc07afba3d03e0a91135eb78",
            "tiers.csv": "f68ae6f75450ce280d2cb2ee7d36f753cd9e60c67b3fe9759ccab574c1b6988d",
            "topics.csv": "7e2c356e2832977fdecaef7b2855d58c6a3258b456910100895ed29e99e19cd1",
        },
    ),
    "bridge_sweep": (
        ["run", "bridge_sweep.yaml"],
        {
            "summary.csv": "956a9f0a42b7a0187eb9e1d59e1e9edf91156196dbc8e3eddb1f37cceeca54b0",
            "tiers.csv": "5dd4a69ddeb1050f3b0fd8eab56a4297083e501fe1b9094b6a038bcf899b8eb5",
            "topics.csv": "fc77905c232786e2e9723967b6b2818cf2d9faaf14739e71e955320fad0dc49e",
        },
    ),
    "agents20": (
        ["run", "agents20.yaml"],
        {
            "summary.csv": "2fdf19d25f8c036b024b82fc715603c7c3795091ac5c7770e70576cb6feb7f81",
            "tiers.csv": "2a13e0db96973f8cfef2cc0fc06b3fcd4a573fec7f521618ced46f2dae65403a",
            "topics.csv": "18df68498997679acfff71b3335e32eb05229bdbd4d25625f6e4232bef1069c7",
        },
    ),
    "mmcf_default": (
        ["run", "mmcf_default.yaml"],
        {
            "mmcf.csv": "569160e5bbf5eaf1d1f9bcb466cb4490317b4ead2da7ecbea15e77da9b116f6e",
            "summary.csv": "1169c95899b3a2cf6bcfdeb17e1ab50f375df27a1fee5db91bbcb01043c951ed",
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
            "agents_2/summary.csv": "0655158725d99bbb4ccd7d4c9981c7e707ce36d3fd06bab8af98db3b88e285f1",
            "agents_2/tiers.csv": "e8e5b50e9fd590295e2bc93e8596a5453f811d0307b7306c1ff2ee45bb7dbf05",
            "agents_2/topics.csv": "abc097fbec2d20f15f521c61c41efdf3ae5ac39e5af4cd45b9bb89d8ddf85c8e",
            "agents_3/summary.csv": "462b7fdc051886e0f321b2ec89f652a327e730f3a9f2622184e965dcf3e99ef7",
            "agents_3/tiers.csv": "5dd4a69ddeb1050f3b0fd8eab56a4297083e501fe1b9094b6a038bcf899b8eb5",
            "agents_3/topics.csv": "fc77905c232786e2e9723967b6b2818cf2d9faaf14739e71e955320fad0dc49e",
            "agents_5/summary.csv": "d02660004f704a4f48c635a696f10ae618f2d415ab44e7aad0a27d3a26d987ec",
            "agents_5/tiers.csv": "49a1af9cd505bcb8389525e849b92a5b2abbdb563a56d33e0f3cb4e9388ce433",
            "agents_5/topics.csv": "6786820d10a3458e9f0964c8f37d2b94746a6e32416d0950a40e682d081ac9a8",
            "sweep.csv": "dbcadf36413036b7cd2fa080e41ac2ecedfe611ed17a68f67a4c0b7d6d5869ba",
        },
    ),
    "sweep agents20": (
        ["sweep", "agents20.yaml", "--counts", "50,100"],
        {
            "agents_100/summary.csv": "10b89275af21f91340fbbf2b34c55ca2639e0efd943fdf3f70ee0ea08ed376eb",
            "agents_100/tiers.csv": "1534e9bfa08b0a4324a8127b78218e9646fe722bf27808497bd4e43aacdbda23",
            "agents_100/topics.csv": "05d2ef4ac9ebe1a075515f9e55c276ff7844424b3998b6d9f23ab06fa62c6d90",
            "agents_50/summary.csv": "839abb6c8f74489e0d7b4fd25e098cf32b80e8b31c6dbe832485af6825ff776f",
            "agents_50/tiers.csv": "9b5e9fe5463335038e83b102f116d664a4fe734bc27381f595e2e431b24f15e9",
            "agents_50/topics.csv": "fe99ff12f04aecab684e1748b1fee981c41c96a352ddc763c0309929871f6238",
            "sweep.csv": "5ddb0c9570634db781972bc00c8dccd307e89d9d3ded89538e9ae34cacfaa138",
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
