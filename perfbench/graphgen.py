"""Seeded dated citation graph shaped like the public HEP-PH files.

Written as the two tab-separated files `cascadecite ingest` reads:
`citing<TAB>cited` edges and `paper<TAB>YYYY-MM-DD` dates. The shape is
meant to resemble the real data (the constants below say which parts are
published and which assumed): publication dates spread over about ten
years with a growing submission rate, about twelve references per paper,
each to an earlier paper, picked by preferential attachment damped by age,
a share of papers that cite nothing, and a few papers missing from the
dates file. Roots that cite nothing are kept as they are, so the ingest
tally of roots anchored without a date shows whatever the program does
with them.

The cost of encoding and training is set by the widest and deepest cascade
of the train split (the schema pads every cascade to it). That extreme moves
the encoded size by about 13% (coefficient of variation) from one random
graph to the next, and by 9-11% (spread between quartiles) when only the
split changes, which would swamp the changes the benchmark must see. So one
fixed draw sets the dates and who cites whom, and the seed draws the paper
ids and the order of the lines in both files. Ids rise with the date, as
arXiv numbers do, so the order of roots, the split and the trees, and with
them the amount of work, are the same for every seed.
"""

from __future__ import annotations

import datetime as _dt
from pathlib import Path

import numpy as np

# Shape constants. Two follow the public description of cit-HepPh (SNAP;
# Leskovec, Kleinberg and Faloutsos, KDD 2005): 34,546 papers with 421,578
# citations among them, 12.2 per paper, published from January 1993 to
# April 2003 (124 months). The span here is a round ten years. The others
# are assumptions that have not been checked against the real files: the
# share of papers that cite nothing, the share left out of the dates file,
# how fast the chance of being cited decays with age, and a submission
# rate that grows linearly. Check them when cit-HepPh*.txt are available.
START = _dt.date(1992, 1, 1)
SPAN_DAYS = 3650
MEAN_REFS = 12.0          # published: 421,578 / 34,546
NO_REFS_SHARE = 0.08      # assumed
UNDATED_SHARE = 0.01      # assumed
AGE_SCALE_DAYS = 700.0    # assumed
SHAPE_SEED = 200902647


def _attachment(papers: int, rng: np.random.Generator):
    # submission rate grows linearly over the span (assumed): inverse-CDF of a ramp
    u = np.sort(rng.random(papers))
    days = np.floor(SPAN_DAYS * (np.sqrt(1.0 + 3.0 * u) - 1.0)).astype(np.int64)
    undated = rng.random(papers) < UNDATED_SHARE
    in_deg = np.zeros(papers, dtype=np.float64)
    edges: list[tuple[int, int]] = []
    first_of_day = np.searchsorted(days, days, side="left")
    for i in range(papers):
        earlier = int(first_of_day[i])  # only strictly earlier papers are citable
        if earlier == 0 or rng.random() < NO_REFS_SHARE:
            continue
        k = min(earlier, 1 + int(rng.poisson(MEAN_REFS - 1.0)))
        age = (days[i] - days[:earlier]).astype(np.float64)
        w = (in_deg[:earlier] + 1.0) * np.exp(-age / AGE_SCALE_DAYS)
        cited = rng.choice(earlier, size=k, replace=False, p=w / w.sum())
        in_deg[cited] += 1.0
        edges.extend((i, int(j)) for j in cited)
    return days, undated, edges


def generate_graph(papers: int, seed: int) -> tuple[list[str], list[_dt.date | None], list[tuple[int, int]]]:
    """Paper ids, dates (None for papers left out of the dates file) and
    (citing, cited) index pairs in file order. Same seed, same graph."""
    days, undated, edges = _attachment(papers, np.random.default_rng(SHAPE_SEED))
    rng = np.random.default_rng(seed)
    edges = [edges[i] for i in rng.permutation(len(edges))]
    # seven-digit ids, so text order is numeric order
    ids = [str(x) for x in np.sort(rng.choice(np.arange(9_200_000, 9_200_000 + 20 * papers), size=papers, replace=False))]
    dates = [None if undated[i] else START + _dt.timedelta(days=int(days[i])) for i in range(papers)]
    return ids, dates, edges


def write_graph(out_dir: Path, papers: int, seed: int) -> dict:
    """Write edges.tsv and dates.tsv into out_dir; return the shape counts."""
    ids, dates, edges = generate_graph(papers, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "edges.tsv", "w") as fh:
        fh.write("# citing\tcited\n")
        fh.writelines(f"{ids[a]}\t{ids[b]}\n" for a, b in edges)
    order = np.random.default_rng(seed + 1).permutation(papers)
    with open(out_dir / "dates.tsv", "w") as fh:
        fh.write("# paper\tdate\n")
        fh.writelines(f"{ids[i]}\t{dates[i].isoformat()}\n" for i in order if dates[i] is not None)
    citing = {a for a, _ in edges}
    return {
        "papers": papers,
        "edges": len(edges),
        "papers_citing_nothing": papers - len(citing),
        "papers_without_date": sum(d is None for d in dates),
    }
