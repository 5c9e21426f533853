"""Walk through the forecast-verification suite on a published-scale confusion
matrix: the Gerrity scoring matrix, GMGS, binarized TSS and BSS, and the
per-cell influence decomposition that pinpoints which confusions hurt most.
"""

import numpy as np

from flarecast import (
    ConfusionMatrix,
    FlareClass,
    bss_ge_m,
    gerrity_matrix,
    gmgs,
    gmgs_influence,
    harmonic_mean,
    tss_ge_m,
)

# A realistic evaluation outcome: 8306 samples, heavily dominated by quiet (O)
# periods, with the model over-warning on the rare X class.
counts = np.array(
    [
        [5336, 471, 92, 69],
        [807, 748, 105, 183],
        [139, 130, 85, 64],
        [1, 33, 12, 31],
    ]
)
cm = ConfusionMatrix(counts)
print("confusion matrix (rows observed O,C,M,X / cols predicted):")
print(cm.counts)

# The scoring matrix is built from climatology alone. Correct rare-class
# forecasts earn large rewards; cross-category misses are penalized.
climatology = cm.observed_counts() / cm.n
s = gerrity_matrix(climatology)
print("\nclimatology:", np.round(climatology, 4))
print("Gerrity scoring matrix:")
print(np.round(s.scores, 3))
print("equitability check (climatology @ scores):", np.max(np.abs(s.climatology @ s.scores)))

print("\nGMGS:", round(gmgs(cm), 4))
print("TSS(>=M):", round(tss_ge_m(cm), 4))

# Constant forecasts get zero skill by construction.
constant = np.zeros((4, 4), dtype=int)
constant[:, 0] = cm.observed_counts()
print("GMGS of an always-quiet forecaster:", round(gmgs(ConfusionMatrix(constant)), 12))

# The Brier skill score needs probability forecasts; build a tiny example.
probs = np.array(
    [
        [0.1, 0.1, 0.4, 0.4],
        [0.6, 0.3, 0.1, 0.0],
        [0.2, 0.3, 0.3, 0.2],
        [0.5, 0.4, 0.1, 0.0],
    ]
)
observed = [FlareClass.X, FlareClass.O, FlareClass.M, FlareClass.C]
bss = bss_ge_m(probs, observed)
print("\nBSS(>=M) on four probability forecasts:", round(bss, 4))
print("harmonic mean of 0.484 and 0.353:", round(harmonic_mean(0.484, 0.353), 4))

# Influence: contribution of each off-diagonal cell to the GMGS deficit.
print("\ntop influence rows (observed -> predicted):")
for e in gmgs_influence(cm, s)[:5]:
    print(f"  {e.observed.name} -> {e.predicted.name}: {e.influence:.4f}")
