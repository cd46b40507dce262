"""Row assembly and input-file parsing shared by the serving tiers.

:func:`rows_from_ranked_arrays` turns the padded ranked arrays of
:meth:`~repro.core.base.Recommender.recommend_batch_arrays` into the
``(user, rank, item, label, score)`` row dicts every cohort report carries;
:func:`load_user_file` and :func:`load_event_file` parse the cohort and
rating-event files the command line accepts. Cohorts themselves are served
by :meth:`~repro.service.engine.ServingEngine.serve_cohort` —
``repro.cli serve-batch`` runs it on an engine with ``result_cache_size=0``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError, DataFormatError
from repro.utils.validation import as_index_array

__all__ = ["load_user_file", "load_event_file", "rows_from_ranked_arrays"]


def rows_from_ranked_arrays(users: np.ndarray, items: np.ndarray,
                            scores: np.ndarray,
                            item_labels: np.ndarray) -> list[dict]:
    """Bulk-build (user, rank, item, label, score) row dicts.

    ``items``/``scores`` are the padded ``(len(users), k)`` matrices of
    :meth:`~repro.core.base.Recommender.recommend_batch_arrays`;
    ``item_labels`` is an object array over the catalogue. The flattening,
    padding filter and label gather are all vectorised — only the final dict
    materialisation touches Python objects, once per emitted row.
    """
    n, k = items.shape
    keep = (items >= 0).ravel()
    user_column = np.repeat(np.asarray(users, dtype=np.int64), k)[keep]
    rank_column = np.tile(np.arange(1, k + 1, dtype=np.int64), n)[keep]
    item_column = items.ravel()[keep]
    score_column = scores.ravel()[keep]
    label_column = item_labels[item_column]
    return [
        {"user": int(u), "rank": int(r), "item": int(i), "label": l,
         "score": float(s)}
        for u, r, i, l, s in zip(user_column, rank_column, item_column,
                                 label_column, score_column)
    ]


def _label_array(item_labels) -> np.ndarray:
    arr = np.empty(len(item_labels), dtype=object)
    arr[:] = list(item_labels)
    return arr


def load_event_file(path: str) -> list[tuple[str, str, float]]:
    """Parse a rating-event log: ``user_label item_label rating`` per line.

    Tokens are whitespace-separated (labels therefore cannot contain
    whitespace); blank lines and ``#`` comments are ignored. Labels are kept
    as strings — matching how the CLI-fitted synthetic datasets (and any
    CSV-loaded data) label users/items; datasets with non-string labels are
    updated through the Python API instead. Unknown labels are *not* an
    error: they register new users/items when the events are applied.
    """
    events: list[tuple[str, str, float]] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'user item rating', got {line!r}"
                )
            try:
                rating = float(parts[2])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: expected a numeric rating, got {parts[2]!r}"
                ) from None
            events.append((parts[0], parts[1], rating))
    if not events:
        raise DataFormatError(f"{path}: no rating events found")
    return events


def load_user_file(path: str, n_users: int) -> np.ndarray:
    """Parse a cohort file: one user index per line.

    Blank lines and ``#`` comments are ignored; indices must be integers in
    ``[0, n_users)``. Duplicates are kept (a cohort may legitimately repeat a
    user).
    """
    indices: list[int] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                indices.append(int(line))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: expected a user index, got {line!r}"
                ) from None
    if not indices:
        raise DataFormatError(f"{path}: no user indices found")
    try:
        return as_index_array(np.array(indices), n_users, "users")
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
