"""The :class:`TaskGraph` application model.

A ``TaskGraph`` is a weighted DAG ``G = (V, E)``: nodes are :class:`Task`
objects, and each edge ``(t, t')`` carries a communication *volume* — the
amount of data produced by ``t`` and consumed by ``t'`` for one data set of the
stream.  Transferring a volume ``vol`` over a link of bandwidth ``d`` takes
``vol / d`` time units (and zero when producer and consumer run on the same
processor).

The class is independent from :mod:`networkx` (plain dictionaries keep the
hot scheduling loops fast and the semantics explicit, and the cycle check is a
simple iterative DFS); networkx is an optional dependency, imported only by
the :meth:`TaskGraph.to_networkx` / :meth:`TaskGraph.from_networkx` export.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.exceptions import CycleError, GraphError
from repro.graph.task import Task
from repro.utils.checks import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["TaskGraph"]


class TaskGraph:
    """A weighted directed acyclic graph of streaming tasks.

    The graph is built incrementally with :meth:`add_task` and :meth:`add_edge`
    and is validated lazily: acyclicity is enforced whenever a topological
    order is requested (and by :meth:`validate`).

    Notation from the paper
    -----------------------
    * ``v = |V|`` → :attr:`num_tasks`
    * ``e = |E|`` → :attr:`num_edges`
    * ``Γ⁻(t)`` → :meth:`predecessors`
    * ``Γ⁺(t)`` → :meth:`successors`
    * entry / exit nodes → :meth:`entry_tasks` / :meth:`exit_tasks`
    """

    def __init__(self, name: str = "workflow"):
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        self._topo_cache: tuple[str, ...] | None = None

    # ------------------------------------------------------------ construction
    def add_task(self, task: Task | str, work: float | None = None) -> Task:
        """Add a task to the graph and return it.

        Accepts either an already-built :class:`Task` or a ``(name, work)``
        pair for convenience.  Re-adding an existing name raises
        :class:`~repro.exceptions.GraphError`.
        """
        if isinstance(task, str):
            if work is None:
                raise GraphError(f"work must be provided when adding task {task!r} by name")
            task = Task(task, work)
        elif work is not None:
            raise GraphError("work must not be provided when adding a Task instance")
        if task.name in self._tasks:
            raise GraphError(f"task {task.name!r} already exists in graph {self.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = {}
        self._pred[task.name] = {}
        self._topo_cache = None
        return task

    def add_edge(self, src: str | Task, dst: str | Task, volume: float) -> None:
        """Add a precedence edge ``src → dst`` carrying *volume* units of data."""
        src_name = src.name if isinstance(src, Task) else src
        dst_name = dst.name if isinstance(dst, Task) else dst
        for n in (src_name, dst_name):
            if n not in self._tasks:
                raise GraphError(f"unknown task {n!r} in graph {self.name!r}")
        if src_name == dst_name:
            raise GraphError(f"self-loop on task {src_name!r} is not allowed")
        if dst_name in self._succ[src_name]:
            raise GraphError(f"edge {src_name!r} -> {dst_name!r} already exists")
        check_positive(volume, f"volume of edge {src_name!r}->{dst_name!r}")
        self._succ[src_name][dst_name] = float(volume)
        self._pred[dst_name][src_name] = float(volume)
        self._topo_cache = None

    # ---------------------------------------------------------------- accessors
    @property
    def num_tasks(self) -> int:
        """``v = |V|``."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        """``e = |E|``."""
        return sum(len(s) for s in self._succ.values())

    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks, in insertion order."""
        return tuple(self._tasks.values())

    @property
    def task_names(self) -> tuple[str, ...]:
        """All task names, in insertion order."""
        return tuple(self._tasks.keys())

    def task(self, name: str) -> Task:
        """Return the task called *name*."""
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r} in graph {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def work(self, name: str) -> float:
        """Computation amount ``E(t)`` of task *name*."""
        return self.task(name).work

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Iterate over ``(src, dst, volume)`` triples."""
        for src, dsts in self._succ.items():
            for dst, vol in dsts.items():
                yield src, dst, vol

    def has_edge(self, src: str, dst: str) -> bool:
        """True when the edge ``src → dst`` exists."""
        return dst in self._succ.get(src, {})

    def volume(self, src: str, dst: str) -> float:
        """Communication volume carried by edge ``src → dst``."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r} in graph {self.name!r}") from None

    def predecessors(self, name: str) -> tuple[str, ...]:
        """``Γ⁻(t)`` — immediate predecessors of *name*."""
        self.task(name)
        return tuple(self._pred[name].keys())

    def successors(self, name: str) -> tuple[str, ...]:
        """``Γ⁺(t)`` — immediate successors of *name*."""
        self.task(name)
        return tuple(self._succ[name].keys())

    def in_degree(self, name: str) -> int:
        """Number of immediate predecessors."""
        return len(self.predecessors(name))

    def out_degree(self, name: str) -> int:
        """Number of immediate successors."""
        return len(self.successors(name))

    def entry_tasks(self) -> tuple[str, ...]:
        """Tasks without predecessors (where the input stream enters)."""
        return tuple(n for n in self._tasks if not self._pred[n])

    def exit_tasks(self) -> tuple[str, ...]:
        """Tasks without successors (where the output stream leaves)."""
        return tuple(n for n in self._tasks if not self._succ[n])

    @property
    def total_work(self) -> float:
        """Sum of the work of all tasks."""
        return sum(t.work for t in self._tasks.values())

    @property
    def total_volume(self) -> float:
        """Sum of the volumes of all edges."""
        return sum(vol for _, _, vol in self.edges())

    # ------------------------------------------------------------------- orders
    def topological_order(self) -> tuple[str, ...]:
        """A topological order of the task names (Kahn's algorithm).

        Ties are broken by insertion order so the result is deterministic.

        Raises
        ------
        CycleError
            If the graph contains a cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        in_deg = {n: len(self._pred[n]) for n in self._tasks}
        queue = deque(n for n in self._tasks if in_deg[n] == 0)
        order: list[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for succ in self._succ[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._tasks):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = tuple(order)
        return self._topo_cache

    def reverse_topological_order(self) -> tuple[str, ...]:
        """The reverse of :meth:`topological_order` (sinks first), used by R-LTF."""
        return tuple(reversed(self.topological_order()))

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.CycleError` if the graph is cyclic,
        :class:`~repro.exceptions.GraphError` if it is empty."""
        if not self._tasks:
            raise GraphError(f"graph {self.name!r} has no task")
        self.topological_order()

    # ------------------------------------------------------------------ exports
    def to_networkx(self) -> "nx.DiGraph":
        """Export as a :class:`networkx.DiGraph` (node attr ``work``, edge attr ``volume``)."""
        g = _networkx().DiGraph(name=self.name)
        for t in self._tasks.values():
            g.add_node(t.name, work=t.work)
        for src, dst, vol in self.edges():
            g.add_edge(src, dst, volume=vol)
        return g

    @classmethod
    def from_networkx(cls, g: "nx.DiGraph", name: str | None = None) -> "TaskGraph":
        """Build a :class:`TaskGraph` from a DiGraph with ``work``/``volume`` attributes."""
        _networkx()
        tg = cls(name or g.name or "workflow")
        for node, data in g.nodes(data=True):
            tg.add_task(Task(str(node), float(data["work"])))
        for src, dst, data in g.edges(data=True):
            tg.add_edge(str(src), str(dst), float(data["volume"]))
        return tg

    @classmethod
    def from_edges(
        cls,
        works: Mapping[str, float],
        edges: Iterable[tuple[str, str, float]],
        name: str = "workflow",
    ) -> "TaskGraph":
        """Convenience constructor from a ``{task: work}`` mapping and an edge list."""
        tg = cls(name)
        for task_name, work in works.items():
            tg.add_task(Task(task_name, work))
        for src, dst, vol in edges:
            tg.add_edge(src, dst, vol)
        return tg

    def reversed(self, name: str | None = None) -> "TaskGraph":
        """The graph with every edge reversed (volumes preserved).

        Used by R-LTF, whose traversal is bottom-up: running the top-down
        engine on the reversed graph is equivalent to a bottom-up traversal of
        the original one.
        """
        clone = TaskGraph(name or f"{self.name}-reversed")
        for t in self._tasks.values():
            clone.add_task(t)
        for src, dst, vol in self.edges():
            clone.add_edge(dst, src, vol)
        return clone

    def copy(self, name: str | None = None) -> "TaskGraph":
        """Deep-enough copy of the graph (tasks are immutable and shared)."""
        clone = TaskGraph(name or self.name)
        for t in self._tasks.values():
            clone.add_task(t)
        for src, dst, vol in self.edges():
            clone.add_edge(src, dst, vol)
        return clone

    def scaled(self, work_factor: float = 1.0, volume_factor: float = 1.0, name: str | None = None) -> "TaskGraph":
        """Return a copy with every work multiplied by *work_factor* and every
        volume by *volume_factor* (used by the generator to hit a target granularity)."""
        check_positive(work_factor, "work_factor")
        check_positive(volume_factor, "volume_factor")
        clone = TaskGraph(name or self.name)
        for t in self._tasks.values():
            clone.add_task(Task(t.name, t.work * work_factor, t.attributes))
        for src, dst, vol in self.edges():
            clone.add_edge(src, dst, vol * volume_factor)
        return clone

    def __repr__(self) -> str:
        return f"TaskGraph({self.name!r}, tasks={self.num_tasks}, edges={self.num_edges})"


def _networkx():
    """The :mod:`networkx` module, imported on first use of the export."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "TaskGraph.to_networkx/from_networkx need networkx, an optional "
            "dependency of repro-streaming: pip install networkx"
        ) from exc
    return networkx
