"""Ingest, encode and synth artifacts stay byte for byte what they were.

A small seeded edges/dates pair goes through `ingest` and `encode`; the
SHA-256 of every artifact those commands write (manifests aside, since
they hold timestamps and paths) must equal the digest pinned below. The
graph is drawn with `random.Random.random` alone, whose stream Python
keeps fixed across versions, so the inputs do not move with NumPy.

The inputs touch the corners the writers and the build handle: ids that
JSON must escape, repeated edge lines, a self-citation, an undated citer,
a repeated date line, comments and blank lines, roots that cite nothing,
and splits whose val/test trees overflow the train schema.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import random
from pathlib import Path

from cascadecite.cli import main

# Recorded with this test's inputs before the per-node ingest and encode
# paths replaced the per-slot ones; any change here changes an artifact.
PINNED = {
    "casc/cascades.jsonl": "6c0b52676be040e2163b945977ee6a5e78d1581d5233144b746241395b9beb4e",
    "casc/ingest_report.json": "2c1ceb2a7320e36f2185651e33751d67ad9f1c5b2826530d01143ef32d920771",
    "enc/schema.json": "d5d2e943dfb48e75d6d0deb6d9cec1e503103a2413cb1fbb16ca2b7296a8352c",
    "enc/train.encoded.jsonl": "1502d905d74f44892320e4f6cd127c9c40701a70af7520e0dd7e9b07d8b82754",
    "enc/val.encoded.jsonl": "a6593a9f854c6a8b3eeb6fec85e47aa70c754760ab2885a40ec840394297a71a",
    "enc/test.encoded.jsonl": "8ad48774c6c663dcbd9f7b3d7909c42d135af46b507f91a185c07407150f5917",
}


def write_graph(d: Path, papers: int = 400, seed: int = 29) -> None:
    rng = random.Random(seed).random
    start = dt.date(2000, 1, 1)
    days = sorted(int(rng() * 2400) for _ in range(papers))
    odd = ['q"uote', "back\\slash", "café", "tab sep"]
    ids = [odd[i % 4] + str(i) if i % 37 == 0 else f"hep-{9300000 + 7 * i}" for i in range(papers)]
    edges = ["# citing\tcited", ""]
    for i in range(1, papers):
        if rng() < 0.1:
            continue  # cites nothing
        for _ in range(1 + int(rng() * 9)):
            j = int(i * rng() ** 0.4)  # earlier papers, recent ones more often
            edges.append(f"{ids[i]}\t{ids[j]}")
            if rng() < 0.02:
                edges.append(f" {ids[i]}\t{ids[j]} ")  # the same citation again
    edges.append(f"{ids[5]}\t{ids[5]}")
    dates = [f"{pid}\t{start + dt.timedelta(days=day)}" for pid, day in zip(ids, days) if rng() > 0.03]
    dates.append(f"{ids[10]}\t{start + dt.timedelta(days=days[10] + 30)}")  # later date, ignored
    edges.sort(key=lambda _: rng())  # line order drawn too
    dates.sort(key=lambda _: rng())
    d.mkdir(parents=True)
    (d / "edges.tsv").write_text("\n".join(edges) + "\n")
    (d / "dates.tsv").write_text("\n".join(dates) + "\n")


def run_ingest_and_encode(root: Path) -> dict[str, str]:
    write_graph(root / "graph")
    assert main(["ingest", "--edges", str(root / "graph" / "edges.tsv"),
                 "--dates", str(root / "graph" / "dates.tsv"), "--out", str(root / "casc"),
                 "--window-days", "500", "--horizon", "400", "--min-observed", "3"]) == 0
    assert main(["encode", "--cascades", str(root / "casc" / "cascades.jsonl"),
                 "--out", str(root / "enc"), "--bins", "5", "--seed", "4"]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in PINNED}


def test_ingest_and_encode_artifacts_match_their_pinned_digests(tmp_path):
    assert run_ingest_and_encode(tmp_path) == PINNED


# Recorded before the attachment steps ran for many cascades at once; the
# arguments are the fit-small benchmark's, whose corpus this is.
SYNTH_PINNED = "213f7dfb81220675a7c851aaf107a4fa5035ab0b3f0464441b6519f3c346f215"


def test_synth_corpus_matches_its_pinned_digest(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--n", "200", "--size-min", "6", "--size-max", "18",
                 "--synth-horizon", "80", "--window-days", "40", "--bias", "1.0", "--seed", "11"]) == 0
    assert hashlib.sha256((tmp_path / "cascades.jsonl").read_bytes()).hexdigest() == SYNTH_PINNED


# Recorded before stats and probe took their features from one tree shape;
# trees.jsonl is the latest-parent tree of every cascade the ingest wrote.
SHAPE_PINNED = {
    "stats/stats.json": "2100985d085bb6e8f02056c6d76923528fa994ef54ad492dfddc5ee73a35fea5",
    "trees/trees.jsonl": "11875c95521cd41a3cdb7095e67cbeefc3346146c3503acdc8cdddc433d47690",
}


def test_stats_and_dumped_trees_match_their_pinned_digests(tmp_path):
    run_ingest_and_encode(tmp_path)
    cascades = str(tmp_path / "casc" / "cascades.jsonl")
    assert main(["stats", "--cascades", cascades, "--out", str(tmp_path / "stats"), "--seed", "4"]) == 0
    assert main(["encode", "--cascades", cascades, "--out", str(tmp_path / "trees"),
                 "--bins", "5", "--seed", "4", "--dump-trees"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SHAPE_PINNED}
    assert got == SHAPE_PINNED
