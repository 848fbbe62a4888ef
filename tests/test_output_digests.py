"""Byte-identity of the statistic and oracle reports and of the CLI output.

The digests below are sha256 sums of ``StatReport.to_csv()`` for fixed
instances (or standalone pieces), seeds and flags, and of the stdout of ``htsp optimize-params``,
``htsp sample``, ``htsp join``, ``htsp tour``, ``htsp hierarchy`` and
``htsp cactus``.
They pin the README's determinism promise across refactors: a change that
alters any of these reports must say why and update the digest in the
same change.
"""

import hashlib

import pytest

from htsp.cli import main
from htsp.pipeline import SamplerParams
from htsp.stats import ExperimentConfig, load_instance, oracle_check, run_suite

SUITE_ALL_ZOO = {
    "mi": "491c9d78ad2ac733f0f51bbe1a3e58bfec2c6efa908d974bcad4d17c2bce4e7d",
    "maxent": "75bedca4a33be8549a22910185c74e72043f20b7b7bf8c8ffe5d1174f2bf9230",
    "mix": "6f349dff9be3a7ee6ae351f871f778d6141eb112c63f99a5ccaa677ed84cf52e",
}
# the conftest random-4reg instance (n = 12, generator seed 3): its degree
# pieces are the largest of the pinned instances, the slow compile
SUITE_ALL_4REG_MIX = "9e834afa2e6ade795b821fbe52bd057a35eed98f490071bd51c67246ed2426af"
ORACLE_4REG = {
    "mi": "0bbefebd9ee0cdff1758990d2fa818f9c3e2311800b877fc88fee8f4c4f05f1e",
    "maxent": "79fe1f211e45aa6a4c2bf41fbfeeb0806baf8ef839cb21afb531d1b242a92366",
    "mix": "5e376c5160e16f318675aeda113677fa1f7595e856930dd69d5829df43138206",
}
# the correlation suite (its events over each piece's tree table, both
# routes of the mix), 20,000 trials at seed 5: the zoo instance at
# generator seed 3, and the two named standalone pieces
CORRELATIONS = {
    (("family", "zoo"), ("gen_seed", 3)):
        "44dcef38bb86f88816ee105d477f0373476fb2f85951117b2ac8777aeaa7b7b7",
    (("piece", "c8_12"),):
        "04fbe0f9d1f823607988183ee2291ea6de720a0bca1a34f8aff07082a69102c3",
    (("piece", "c7bar"),):
        "d0859e90498a1322fe8e5cfce4287e50a85cb9d6c5dcf114b8dadb35f2fa6222",
}
REDUCTION_FLOOR_ZOO_MIX = "28752a357d801b34e998990d43987d60dfd91bd0453be3f14634f5c6d309c5cd"
ORACLE_ZOO_MIX = "c9c23edd08d39617c55e6d16b754527d5a60302d08755c01cc7eaa18998812df"
# the oracle report on the mix: the zoo instance, and the cycle shapes,
# double-cycle k = 24 at generator seed 1 (the cuts-dcycle shape) and the
# conftest k5-gadget
ORACLE_MIX = {
    (("family", "zoo"), ("gen_seed", 3)): ORACLE_ZOO_MIX,
    (("family", "double-cycle"), ("k", 24), ("gen_seed", 1)):
        "31775fac3f7eaabfef585ed94a945ca906c79d3f707d4c294d2ea8c291a97552",
    (("family", "k5-gadget"), ("k", 6), ("gen_seed", 3)):
        "1d7093a6010b238b4a1bf87e62457bc30c7cda57e3f0e8a62c52178e75dcc9fd",
}
# the optimized mix, amounts (floats and exact) and binding constraints
OPTIMIZE_PARAMS = "7dc901fbf651bf28b55f16f9b8420a6fc0afd981e7cf9cff929b83395fdb3ad4"
# stdout of one command on a generated instance: (family, generator flags,
# command arguments after the instance path) -> digest.  ``sample``, ``join``
# and ``tour`` read the trials of ``BatchEngine.run`` at their seed
CLI_STDOUT = {
    ("zoo", ("--seed", "3"), ("sample", "--trials", "5", "--seed", "9",
                              "--dump-shift")):
        "be41db8bc68fb5af0807a91f09d82dfa440c4cb46874c78c27752213a574d211",
    ("zoo", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2")):
        "70616160057cae06aad8782dc164f693c21ef98945fc02c1d35afcab5b538c0d",
    # the join of each pure route, the unshortcut tour, and the mix on the
    # families with the larger degree pieces
    ("zoo", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2",
                              "--sampler", "mi")):
        "6101c6f3e1e4ccd2946bea21f76c54f47cfc5fc94f9142109a30f44489db2725",
    ("zoo", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2",
                              "--sampler", "maxent")):
        "ca5ba27515df236a05024e66b2da28f3d3365e412ae0e6156294887a5eb233d8",
    ("zoo", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2",
                              "--no-shortcut")):
        "261561dd5f821dd407b0ff84e2a4fcfe7ff9e01e87704f0bd23ea59dfc8e868a",
    ("nested", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2")):
        "694bfa1a4125abbbf651b746453b87456cc5eae11ece9eea7e5c967c4296764d",
    ("random-4reg", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2")):
        "8ea709e657e332d9320b8574787be8bd2239bb4f2c7d1dc4e032fa3c0417025b",
    ("zoo", ("--seed", "3"), ("tour", "--seed", "2")):
        "7c28a6af4cb27052f50d2e2b27bfd9a6bd0810e6831bc176e44cd55e971050d0",
    ("zoo", ("--seed", "3"), ("tour", "--seed", "2", "--sampler", "mi")):
        "6b0bbbdf91648ffbcbe9fe91a7a0265175fb942bb1590730c71a0db555f709bf",
    # the unshortcut tour's walk, and the join on K5 pieces
    ("zoo", ("--seed", "3"), ("tour", "--seed", "2", "--no-shortcut")):
        "cb288b026b703b2dbbeba6eb1d6d7c019d78acf1bb997f2c49bf628220639d6d",
    ("k5-gadget", ("--seed", "3"), ("join", "--trials", "20", "--seed", "2")):
        "6c835f36f800e9876c81e93949289170d5c455a22701faf377c1aac1d36718f0",
    # the trees of each sampler on the families with odd degree pieces, with
    # each degree piece's ledger (route, pairing, matching, colour class,
    # surgery branch) drawn from the walk's posterior given the tree
    ("zoo", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                              "--sampler", "mi", "--dump-shift")):
        "d8eab36c60fcf26dc2b3a18b28584ceb9bed9cc5b48df7721b0968f0ca953d8e",
    ("zoo", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                              "--sampler", "maxent", "--dump-shift")):
        "347e9d5449936ed8750fb0c35617e8ae7e2b00c96ac7785f9aaac92565a08dca",
    ("zoo", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                              "--sampler", "mix", "--dump-shift")):
        "00ebf0e92072f12f88edf7826898818d66bef6bf032f11b8020e1051214ad4af",
    ("nested", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                 "--sampler", "mi", "--dump-shift")):
        "aa1215517c084fd606e92dbc42e309600690fb038837dddaa0e9dba8364fce8b",
    ("nested", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                 "--sampler", "maxent", "--dump-shift")):
        "42776bc22cf206246f84b8b7db9339c5d78b9279d7bc5a979a461cc6321d5712",
    ("nested", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                 "--sampler", "mix", "--dump-shift")):
        "5860dfb2f4bfc558b4d780d030379aa70781dec39552a0286c4986c6c80d8fd3",
    ("random-4reg", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                      "--sampler", "mi", "--dump-shift")):
        "fad8d2cd58572e9794adf399497ab452f7bdd670d190a040e8b90de77a01d601",
    ("random-4reg", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                      "--sampler", "maxent", "--dump-shift")):
        "1cdf3a1bf3bbd133160d55515cfdc61ef4fa919d9e96bcc1e7cd52b4fae1c152",
    ("random-4reg", ("--seed", "3"), ("sample", "--trials", "20", "--seed", "9",
                                      "--sampler", "mix", "--dump-shift")):
        "88ce403969bebea4ee218a9ef363c39d5dbc357dbeba3691b829f8522802d2cc",
    # 100 vertices and 4,950 min-cuts: the metric and the join check at size
    ("double-cycle", ("--k", "100", "--seed", "0"), ("join", "--trials", "20")):
        "91d71fd2162c438bb5768eb442a25006d28846c55d309cbcbb202725c20a692f",
    # the hierarchy and cactus JSON of the five conftest instances and of
    # the two families at 100 host positions
    ("double-cycle", ("--seed", "3"), ("hierarchy",)):
        "6faa70e357a188f32145dd4ff1a7ddc1c19659c03ac2028468b450e40695ab07",
    ("double-cycle", ("--seed", "3"), ("cactus",)):
        "919b7418ee6f29e32a7755dfa6b7619017532e0035833d7c21a71365c125ced7",
    ("k5-gadget", ("--k", "6", "--seed", "3"), ("hierarchy",)):
        "0fc80086a7ca205bfe39c4a66081b057ef38fd163b208fde216b04fc80a3ee53",
    ("k5-gadget", ("--k", "6", "--seed", "3"), ("cactus",)):
        "830cec27294fcbe18c368baee8c01b794829c50793079ba9b66de7a1a5457b67",
    ("nested", ("--seed", "3"), ("hierarchy",)):
        "19015c68ed04c9cacbea4f78025ae5631fe19741cb13553ebf316547dcd312ef",
    ("nested", ("--seed", "3"), ("cactus",)):
        "243f11bb0734eb1db878a60649e1cbc9280bcd2e6d821ee4f8f3f637222e4be7",
    ("random-4reg", ("--seed", "3"), ("hierarchy",)):
        "cc7a6e42575471b4db6ae802c649b03494a348a1b6c1409ed0e0e811193c59e7",
    ("random-4reg", ("--seed", "3"), ("cactus",)):
        "bbbe6950820c47bd994af986548d2101a0d278600029646038c50a756ba8a769",
    ("zoo", ("--seed", "3"), ("hierarchy",)):
        "45ed38541037f37b61071605a59215a64bcf5106aae2d8e65cd5bcb45a7fd962",
    ("zoo", ("--seed", "3"), ("cactus",)):
        "bead2cbf2a3e8861b65f25182f95db4cc4fa484787a9f96d77efda6784c930a5",
    ("double-cycle", ("--k", "100", "--seed", "0"), ("hierarchy",)):
        "0e9ae506b45f01f5796da586bef27f3d3db7e527788e5a39f4eda119f1e0837d",
    ("double-cycle", ("--k", "100", "--seed", "0"), ("cactus",)):
        "1ef98e93b61f863a511caf8844572c505957aecb3ae1e8b386baf1a6414b19f3",
    ("k5-gadget", ("--k", "100", "--seed", "0"), ("hierarchy",)):
        "99d7b148d780b2590167b6db0b6a04bbec72ab3c3881ea0f73a340a952048f82",
    ("k5-gadget", ("--k", "100", "--seed", "0"), ("cactus",)):
        "b9a7cf185b216123e2411e28e76c8e02e4ef19f416f11f909aab160fb1105a66",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("sampler", sorted(SUITE_ALL_ZOO))
def test_suite_all_csv_digest(sampler):
    cfg = ExperimentConfig(family="zoo", gen_seed=3, sampler=sampler,
                           trials=20_000, seed=5, suite="all")
    assert _sha(run_suite(cfg).to_csv()) == SUITE_ALL_ZOO[sampler]


def test_suite_reduction_delta_floor_csv_digest():
    cfg = ExperimentConfig(family="zoo", gen_seed=3, sampler="mix",
                           trials=20_000, seed=6, suite="reduction",
                           delta_floor=0.0008475)
    assert _sha(run_suite(cfg).to_csv()) == REDUCTION_FLOOR_ZOO_MIX


@pytest.mark.parametrize("source", sorted(CORRELATIONS))
def test_suite_correlations_csv_digest(source):
    cfg = ExperimentConfig(**dict(source), trials=20_000, seed=5, suite="correlations")
    assert _sha(run_suite(cfg).to_csv()) == CORRELATIONS[source]


@pytest.mark.parametrize("source", sorted(ORACLE_MIX))
def test_oracle_csv_digest(source):
    inst = load_instance(ExperimentConfig(**dict(source)))
    report = oracle_check(inst, SamplerParams(sampler="mix"))
    assert _sha(report.to_csv()) == ORACLE_MIX[source]


def test_suite_all_csv_digest_random_4reg():
    cfg = ExperimentConfig(family="random-4reg", n=12, gen_seed=3, sampler="mix",
                           trials=20_000, seed=5, suite="all")
    assert _sha(run_suite(cfg).to_csv()) == SUITE_ALL_4REG_MIX


@pytest.mark.parametrize("sampler", sorted(ORACLE_4REG))
def test_oracle_csv_digest_random_4reg(sampler):
    inst = load_instance(ExperimentConfig(family="random-4reg", n=12, gen_seed=3))
    report = oracle_check(inst, SamplerParams(sampler=sampler))
    assert _sha(report.to_csv()) == ORACLE_4REG[sampler]


def test_optimize_params_stdout_digest(capsys):
    assert main(["optimize-params"]) == 0
    assert _sha(capsys.readouterr().out) == OPTIMIZE_PARAMS


@pytest.mark.parametrize("family,gen,cmd", sorted(CLI_STDOUT))
def test_cli_stdout_digest(family, gen, cmd, tmp_path, capsys):
    path = str(tmp_path / f"{family}.htsp")
    assert main(["generate", "--family", family, *gen, "--out", path]) == 0
    assert main([cmd[0], path, *cmd[1:]]) == 0
    assert _sha(capsys.readouterr().out) == CLI_STDOUT[(family, gen, cmd)]
