"""Byte-identity of outputs against sha256 digests pinned from a reference run.

Same inputs and seeds must keep producing the same output clusterings, the
same transcript move lists, the same stage distances and the same CLI
report bytes, whatever the internal representation.  Each digest below was
recorded before the array-native representation replaced the tuple one.
"""

import hashlib
import json

import pytest

from fairmerge import closest_fair, gen_random
from fairmerge.cli import main
from fairmerge.fileio import save_clustering, save_instance


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


CLOSEST_FAIR_CASES = [
    (p, q, n, k)
    for p, q in ((1, 1), (3, 1), (3, 2))
    for n, k in ((6000, 30), (6000, 600))
]

CLOSEST_FAIR_DIGESTS = {
    (1, 1, 6000, 30): (
        "9d1c5bda60b867418de6820f97db8448902dc44fa94152b618f81d4a02027845",
        "7f19bfc2b9f63027f128ca4c470bcf98684fcd87485b02b7545fb4f2de6ff7d6",
        "a93d7bb51f5e4947e49e366a294c4909958c1c2492d7c2dce9a07439a124aec9",
    ),
    (1, 1, 6000, 600): (
        "2220f24fc53dfb1af0080d11b0f2ce0edaa513f8d17c98568fa85d7d284fea76",
        "1f76e1ebc74025efefa332a77965d07087178fd1fd666c5415885d287d6c9ee9",
        "a249c9d5b506b5d38fb3579ee04ee6e17752e49b31194765fb06cb4d9be83538",
    ),
    (3, 1, 6000, 30): (
        "f93e20f02b343c0da2d377ddf1768d2a58c9e9ca9ed732c4c1b0c6c1e62f7ae6",
        "6bd8660aec57888a64ae521b65eff209895d9e20ccbc7bd1c99390f178dc1ce2",
        "c5ca39c4d917c9b574bf63888ba27682e2b119e72364dff5d72281b2d23dc44a",
    ),
    (3, 1, 6000, 600): (
        "30559e2059bd6359ec496935dce9e5ebfca9dad515dbef619c62524241ee1fec",
        "544d6def82e8d42645115d8bf6a559de87f2e998958a6284914427dedd460295",
        "bf0fde63e8719f7164c520a93ac00bc5fc7cef820dd5d8710b1d0ff0b82641e6",
    ),
    (3, 2, 6000, 30): (
        "5cba6da942609b5fe5bb32e1bde8ff066a16fa315edfdabcead8e6db30b8edf9",
        "bc9ea10e33d56010c68dbc50aad1b85d5131ee6855766aec845bc343394e7842",
        "da81c07bd48af7ab83dd087791e296639e526c90e9f837f27823003ed8f3ec2d",
    ),
    (3, 2, 6000, 600): (
        "31076842f3847c2bd6bf8d7791734c874cefbb2786bb060154d73bc304b5c4df",
        "8294ec10cb76ceba87028c8d45ef5590840de557c7cdd13d44f04a1365de1f4f",
        "9452714e2fb3a532b7a6162598b8aeeb7c2896bb5c0ec9aa4b59e4d5245012ea",
    ),
}

GEN_CASES = [
    (12, 2, 1, 3, 42),
    (600, 3, 2, 17, 7),
    (999, 1, 2, 50, 2**63 + 5),
    (4000, 5, 3, 400, 123456789),
    (60, 1, 1, 60, 0),
]

GEN_DIGESTS = {
    (12, 2, 1, 3, 42): "7e2e9dc5e839f4426b90ff41476b726965ca294378524f67254f31e71609312b",
    (600, 3, 2, 17, 7): "248f36921c2b5076af8657e21de63969d7f2f95b80385a90e92f677817d58e42",
    (999, 1, 2, 50, 2**63 + 5): "f598af964f2d761a3a600136572799785d72437d02fdc544d0d13ab8572b252e",
    (4000, 5, 3, 400, 123456789): "c7482d92bc3d3fe51d4d88807428cc30c6aea0dcd59d3666cecf85efc96385ec",
    (60, 1, 1, 60, 0): "0a0b88136edff3870360f15a76bb653efdf0be70bea8682738fa994363ce9fb1",
}

CONSENSUS_DIGESTS = (
    "885b48c920209ad6fc2bf197ab3b033ed790af17cec82c83f7169bb1e3049099",
    "71e0bacd8062ee9c4b724541693c6981485d4a8f19b0ca1e753489778fc2e597",
)


def _closest_fair_digests(p, q, n, k):
    seed = 1000 * p + 100 * q + k
    inst, clu = gen_random(n, p, q, k, seed)
    out, report, transcript = closest_fair(inst, clu)
    moves = [[list(m.points), m.src, m.dst, m.cost] for m in transcript.moves]
    stage = {
        "regime": report.regime,
        "achieved_distance": report.achieved_distance,
        "stage_distances": report.stage_distances,
        "meta": transcript.meta,
    }
    return _sha(list(out.labels)), _sha(moves), _sha(stage)


@pytest.mark.parametrize("case", CLOSEST_FAIR_CASES, ids=lambda c: "%d:%d-n%d-k%d" % c)
def test_closest_fair_byte_identical(case):
    assert _closest_fair_digests(*case) == CLOSEST_FAIR_DIGESTS[case]


def _gen_digest(n, p, q, k, seed):
    inst, clu = gen_random(n, p, q, k, seed)
    colors = "".join(c.value for c in inst.colors)
    return _sha([colors, list(clu.labels), clu.k, inst.p, inst.q, inst.swapped])


@pytest.mark.parametrize("case", GEN_CASES, ids=lambda c: "n%d-%d:%d-k%d-s%d" % c)
def test_gen_random_byte_identical(case):
    assert _gen_digest(*case) == GEN_DIGESTS[case]


def _consensus_digests(tmp_path):
    inst_path = tmp_path / "inst.json"
    inputs = []
    for j, k in enumerate((4, 25, 90)):
        inst, clu = gen_random(300, 3, 2, k, 77 + j)
        if j == 0:
            save_instance(inst, inst_path)
        path = tmp_path / f"c{j}.json"
        save_clustering(clu, path)
        inputs.append(str(path))
    out, rep = tmp_path / "out.json", tmp_path / "report.json"
    argv = ["consensus", str(inst_path), *inputs, "--l", "2", "--out", str(out), "--report", str(rep)]
    assert main(argv) == 0
    return (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(rep.read_bytes()).hexdigest(),
    )


def test_consensus_cli_bytes_identical(tmp_path):
    assert _consensus_digests(tmp_path) == CONSENSUS_DIGESTS


GRID_RATIOS = ((1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (5, 2), (5, 3), (4, 3), (7, 2))

# recorded before the drivers moved to the count table of ClusterState.counts()
GRID_DIGEST = "8164197201f161067b98fb33626c946aac205e0aa24a29321e5181a801bbd189"


def _grid_cases():
    """30 small seeded instances per ratio: n up to 8 shares, k up to 12."""
    for p, q in GRID_RATIOS:
        for i in range(30):
            n = (p + q) * (2 + i % 7)
            yield n, p, q, 1 + (7 * i) % min(n, 12), 100 * p + 10 * q + i


def test_closest_fair_small_grid_byte_identical():
    records, cases = [], set()
    for n, p, q, k, seed in _grid_cases():
        inst, clu = gen_random(n, p, q, k, seed)
        out, report, transcript = closest_fair(inst, clu)
        moves = [[list(m.points), m.src, m.dst, m.cost] for m in transcript.moves]
        records.append([list(out.labels), moves, transcript.meta, report.stage_distances])
        cases.add(transcript.meta.get("case"))
    assert cases >= {"cut-cut", "cut-merge", "merge-cut", "merge-merge"}
    assert _sha(records) == GRID_DIGEST
