"""Preprocessing transforms for sparse datasets.

The paper's CTR datasets arrive pre-hashed into fixed dimensions; this
package provides the matching tooling for users bringing raw data:

* :func:`hash_features` — the hashing trick: fold arbitrary feature ids
  into ``n_buckets`` dimensions with a sign hash (Weinberger et al.),
  so any LIBSVM file can target a chosen model size;
* :func:`normalize_rows` — L2 row normalisation (standard for
  hinge/logistic training on count features).
"""

from repro.preprocess.transforms import hash_features, normalize_rows

__all__ = ["hash_features", "normalize_rows"]
