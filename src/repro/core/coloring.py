"""The white/grey/black(/red) coloring state machine of Section 2.3.

The paper describes every heuristic in terms of object colors:

* **white** — neither selected nor covered yet,
* **grey** — covered by some selected object,
* **black** — selected into the diverse subset ``S``,
* **red** — transient color used by zooming-out (Algorithm 3): objects
  that were black for the old radius and await re-examination.

:class:`Coloring` holds the color of every object and per-color counts,
and notifies registered listeners on every transition.  The M-tree index
subscribes to maintain its per-leaf white counters, which drive the
grey-subtree pruning rule of Section 5.1.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Iterator, List

import numpy as np

__all__ = ["Color", "Coloring"]


class Color(IntEnum):
    """Object colors in the order the paper introduces them."""

    WHITE = 0
    GREY = 1
    BLACK = 2
    RED = 3


#: listener(object_id, old_color, new_color)
Listener = Callable[[int, Color, Color], None]


class Coloring:
    """Colors for ``n`` objects with O(1) per-color counts.

    All objects start white.  Transitions are unrestricted (zooming
    recolors greys white and blacks red), but every change flows through
    :meth:`set_color` so listeners always observe a consistent stream.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self._codes = np.zeros(n, dtype=np.int8)
        self._counts = [n, 0, 0, 0]
        self._listeners: List[Listener] = []

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._codes.shape[0]

    def color_of(self, object_id: int) -> Color:
        return Color(int(self._codes[object_id]))

    def set_color(self, object_id: int, color: Color) -> None:
        old = Color(int(self._codes[object_id]))
        if old == color:
            return
        self._codes[object_id] = int(color)
        self._counts[int(old)] -= 1
        self._counts[int(color)] += 1
        for listener in self._listeners:
            listener(object_id, old, color)

    # Convenience transitions -------------------------------------------------
    def set_white(self, object_id: int) -> None:
        self.set_color(object_id, Color.WHITE)

    def set_grey(self, object_id: int) -> None:
        self.set_color(object_id, Color.GREY)

    def set_black(self, object_id: int) -> None:
        self.set_color(object_id, Color.BLACK)

    def set_red(self, object_id: int) -> None:
        self.set_color(object_id, Color.RED)

    # Batch transitions --------------------------------------------------------
    def set_many(self, ids, color: Color) -> None:
        """Recolor many objects at once.

        With listeners attached this degrades to per-object
        :meth:`set_color` calls so every subscriber still sees the full
        transition stream; without listeners (simple indexes) it is a
        single vectorised assignment plus a histogram update.  ``ids``
        must not contain duplicates (neighbor lists never do).
        """
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return
        if self._listeners:
            for object_id in ids:
                self.set_color(int(object_id), color)
            return
        old = self._codes[ids]
        changed = old != int(color)
        if not changed.all():
            ids = ids[changed]
            old = old[changed]
            if ids.size == 0:
                return
        self._codes[ids] = int(color)
        histogram = np.bincount(old, minlength=4)
        for code in range(4):
            self._counts[code] -= int(histogram[code])
        self._counts[int(color)] += ids.size

    def set_grey_many(self, ids) -> None:
        """Vectorised :meth:`set_grey` (the hot transition in covering)."""
        self.set_many(ids, Color.GREY)

    def recount(self) -> None:
        """Re-derive the per-color counts after the compiled selection
        kernel recolored :meth:`codes_view` in place (it runs only when
        no listener is attached, so there is no transition stream to
        replay)."""
        if self._listeners:
            raise RuntimeError("recount() would hide transitions from listeners")
        self._counts = np.bincount(self._codes, minlength=4).tolist()

    # Queries ------------------------------------------------------------------
    def is_white(self, object_id: int) -> bool:
        return self._codes[object_id] == int(Color.WHITE)

    def is_grey(self, object_id: int) -> bool:
        return self._codes[object_id] == int(Color.GREY)

    def is_black(self, object_id: int) -> bool:
        return self._codes[object_id] == int(Color.BLACK)

    def is_red(self, object_id: int) -> bool:
        return self._codes[object_id] == int(Color.RED)

    def count(self, color: Color) -> int:
        return self._counts[int(color)]

    @property
    def white_count(self) -> int:
        return self._counts[int(Color.WHITE)]

    def any_white(self) -> bool:
        return self._counts[int(Color.WHITE)] > 0

    def any_red(self) -> bool:
        return self._counts[int(Color.RED)] > 0

    def ids_of(self, color: Color) -> Iterator[int]:
        """All object ids currently holding ``color`` (ascending)."""
        return (int(i) for i in np.nonzero(self._codes == int(color))[0])

    def blacks(self) -> List[int]:
        """Selected objects, ascending by id."""
        return list(self.ids_of(Color.BLACK))

    def codes(self) -> np.ndarray:
        """A copy of the raw color codes (for snapshots / assertions)."""
        return self._codes.copy()

    def codes_view(self) -> np.ndarray:
        """The live ``int8`` color-code array (read-only by convention).

        The CSR fast paths index this directly for vectorised masks.
        Writes go through :meth:`set_color` / :meth:`set_many`, except
        the compiled selection kernel's, which :meth:`recount` follows.
        """
        return self._codes

    def white_mask(self) -> np.ndarray:
        """Boolean mask of the currently white objects."""
        return self._codes == int(Color.WHITE)

    # Listener management --------------------------------------------------------
    def has_listeners(self) -> bool:
        """Whether any subscriber (e.g. an M-tree) watches transitions."""
        return bool(self._listeners)

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def __repr__(self) -> str:
        return (
            f"Coloring(n={self.n}, white={self._counts[0]}, grey={self._counts[1]}, "
            f"black={self._counts[2]}, red={self._counts[3]})"
        )
