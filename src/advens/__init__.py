"""advens: adversarially trained ensembles of small dense classifiers.

Submodules:
  nn         dense classifiers, losses, exact gradients, Adam
  data       synthetic tasks, IDX ingestion, batching
  attacks    l-inf perturbation search (PGD/BIM/MIM, targeted, SPSA)
  ensembles  averaged prediction, security sets, partitions, checkpoints
  training   collaborative / baseline adversarial training losses and loop
  analysis   robust accuracy, transfer metrics, entropy detector, surfaces
  cli        experiment runner (train / eval / transfer / detect / surface)
  atomic     tmp-file + os.replace writes, CSV table and JSON framing
"""

from . import analysis, attacks, data, ensembles, nn, training  # noqa: F401

__version__ = "0.1.0"
