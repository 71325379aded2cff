"""The :class:`Platform`: a set of processors fully interconnected by links.

Bandwidths are stored per ordered processor pair; by default the platform is
symmetric (``d_kh = d_hk``), which matches the paper's model, but asymmetric
links are supported because nothing in the algorithms depends on symmetry.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import PlatformError
from repro.platform.processor import Processor
from repro.utils.checks import check_positive

__all__ = ["Platform"]


class Platform:
    """A fully-connected heterogeneous platform.

    Parameters
    ----------
    processors:
        The processors ``P_1 … P_m`` (at least one; names must be unique).
    bandwidths:
        Either a single real number (uniform bandwidth for every link; a
        ``bool`` is rejected), or a mapping ``{(src_name, dst_name):
        bandwidth}``.  Missing pairs default to ``default_bandwidth``.
        Bandwidth between a processor and itself is irrelevant (local
        communications are free) and ignored.
    default_bandwidth:
        Bandwidth used for pairs absent from *bandwidths*.
    failure_domains:
        Optional failure-domain topology: a mapping ``{domain_name: [processor
        names]}`` declaring which processors share a rack / power domain and
        therefore crash *together* under a correlated fault regime (see
        :func:`repro.failures.scenarios.sample_fault_trace`).  Domains must be
        disjoint; processors left out of every domain fail independently.
    """

    def __init__(
        self,
        processors: Sequence[Processor],
        bandwidths: float | Mapping[tuple[str, str], float] | None = None,
        default_bandwidth: float = 1.0,
        failure_domains: Mapping[str, Sequence[str]] | None = None,
    ):
        processors = list(processors)
        if not processors:
            raise PlatformError("a platform needs at least one processor")
        names = [p.name for p in processors]
        if len(set(names)) != len(names):
            raise PlatformError(f"duplicate processor names: {names}")
        self._processors: dict[str, Processor] = {p.name: p for p in processors}
        self._order: tuple[str, ...] = tuple(names)
        check_positive(default_bandwidth, "default_bandwidth")
        self._default_bandwidth = float(default_bandwidth)
        self._bandwidths: dict[tuple[str, str], float] = {}
        #: link table and its statistics, built on first use and dropped by
        #: :meth:`set_bandwidth` (see :meth:`link_bandwidths`).
        self._links: dict[tuple[str, str], float] | None = None
        self._link_stats: tuple[float, float] | None = None
        #: :attr:`mean_inverse_speed`, built on first use (speeds never change).
        self._mean_inverse_speed: float | None = None
        self._failure_domains = self._check_domains(failure_domains)

        if bandwidths is None:
            pass
        elif isinstance(bandwidths, Real) and not isinstance(bandwidths, bool):
            check_positive(float(bandwidths), "bandwidth")
            self._default_bandwidth = float(bandwidths)
        elif isinstance(bandwidths, Mapping):
            for (src, dst), bw in bandwidths.items():
                self.set_bandwidth(src, dst, bw)
        else:
            raise PlatformError(
                "bandwidths must be a positive number or a mapping "
                f"{{(src, dst): bandwidth}}, got {type(bandwidths).__name__}"
            )

    def _check_domains(
        self, domains: Mapping[str, Sequence[str]] | None
    ) -> dict[str, tuple[str, ...]]:
        if not domains:
            return {}
        seen: set[str] = set()
        checked: dict[str, tuple[str, ...]] = {}
        for domain, members in domains.items():
            members = tuple(members)
            if not members:
                raise PlatformError(f"failure domain {domain!r} is empty")
            for member in members:
                if member not in self._processors:
                    raise PlatformError(
                        f"failure domain {domain!r} names unknown processor {member!r}"
                    )
                if member in seen:
                    raise PlatformError(
                        f"processor {member!r} belongs to more than one failure domain"
                    )
                seen.add(member)
            checked[domain] = members
        return checked

    # ---------------------------------------------------------------- accessors
    @property
    def failure_domains(self) -> dict[str, tuple[str, ...]]:
        """Failure-domain topology ``{domain: member names}`` (empty if undeclared)."""
        return dict(self._failure_domains)

    @property
    def num_processors(self) -> int:
        """``m`` — number of processors."""
        return len(self._order)

    @property
    def processor_names(self) -> tuple[str, ...]:
        """Processor names in declaration order."""
        return self._order

    @property
    def processors(self) -> tuple[Processor, ...]:
        """Processor objects in declaration order."""
        return tuple(self._processors[n] for n in self._order)

    def processor(self, name: str) -> Processor:
        """Return the processor called *name*."""
        try:
            return self._processors[name]
        except KeyError:
            raise PlatformError(f"unknown processor {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._processors

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self.processors)

    def speed(self, name: str) -> float:
        """Speed ``s_u`` of processor *name*."""
        return self.processor(name).speed

    # --------------------------------------------------------------- bandwidths
    def set_bandwidth(self, src: str, dst: str, bandwidth: float, symmetric: bool = True) -> None:
        """Set the bandwidth of link ``l_{src,dst}`` (and the reverse link if *symmetric*)."""
        self.processor(src)
        self.processor(dst)
        if src == dst:
            return
        check_positive(bandwidth, f"bandwidth of link {src!r}->{dst!r}")
        self._bandwidths[(src, dst)] = float(bandwidth)
        if symmetric:
            self._bandwidths[(dst, src)] = float(bandwidth)
        self._links = self._link_stats = None

    def bandwidth(self, src: str, dst: str) -> float:
        """Bandwidth ``d_kh`` of the link from *src* to *dst*.

        Local "links" (``src == dst``) report infinite bandwidth, consistent
        with communications between co-located tasks being free.
        """
        for name in (src, dst):
            if name not in self._processors:
                self.processor(name)  # raises PlatformError
        if src == dst:
            return float("inf")
        return self._bandwidths.get((src, dst), self._default_bandwidth)

    def link_bandwidths(self) -> Mapping[tuple[str, str], float]:
        """``{(src, dst): d_kh}`` over every ordered pair of distinct processors.

        Built on first use and kept until :meth:`set_bandwidth` changes a
        link, so the schedulers look a link up in one dict access.  The
        returned table is shared: do not modify it.
        """
        if self._links is None:
            self._links = {
                (src, dst): self._bandwidths.get((src, dst), self._default_bandwidth)
                for src in self._order
                for dst in self._order
                if src != dst
            }
        return self._links

    # -------------------------------------------------------------------- costs
    def execution_time(self, work: float, processor: str) -> float:
        """Execution time of *work* units on *processor*."""
        return self.processor(processor).execution_time(work)

    def communication_time(self, volume: float, src: str, dst: str) -> float:
        """Transfer time of *volume* data units from *src* to *dst* (0 when co-located)."""
        check_positive(volume, "volume")
        if src == dst:
            return 0.0
        return volume / self.bandwidth(src, dst)

    # ------------------------------------------------------------ aggregate stats
    @property
    def speeds(self) -> np.ndarray:
        """Vector of processor speeds in declaration order."""
        return np.array([self._processors[n].speed for n in self._order], dtype=float)

    @property
    def min_speed(self) -> float:
        """Speed of the slowest processor."""
        return float(self.speeds.min())

    @property
    def max_speed(self) -> float:
        """Speed of the fastest processor."""
        return float(self.speeds.max())

    @property
    def mean_inverse_speed(self) -> float:
        """Average of ``1/s_u`` — used for average execution times in priorities."""
        if self._mean_inverse_speed is None:
            self._mean_inverse_speed = float((1.0 / self.speeds).mean())
        return self._mean_inverse_speed

    def _bandwidth_stats(self) -> tuple[float, float]:
        """``(min_bandwidth, mean_inverse_bandwidth)``, cached with the link table."""
        if self._link_stats is None:
            links = self.link_bandwidths()
            vals = (
                np.array(list(links.values()), dtype=float)
                if links
                else np.array([self._default_bandwidth])
            )
            self._link_stats = (float(vals.min()), float((1.0 / vals).mean()))
        return self._link_stats

    @property
    def min_bandwidth(self) -> float:
        """Bandwidth of the slowest link."""
        return self._bandwidth_stats()[0]

    @property
    def mean_inverse_bandwidth(self) -> float:
        """Average of ``1/d_kh`` over distinct pairs — used for average communication times."""
        return self._bandwidth_stats()[1]

    @property
    def fastest_processor(self) -> str:
        """Name of (one of) the fastest processors."""
        return max(self._order, key=lambda n: (self._processors[n].speed, n))

    # ------------------------------------------------------------------ helpers
    def subset(self, names: Iterable[str]) -> "Platform":
        """A new platform restricted to *names* (bandwidths and failure
        domains are preserved; domains are intersected with *names*)."""
        names = list(names)
        procs = [self.processor(n) for n in names]
        kept = set(names)
        domains = {
            domain: [m for m in members if m in kept]
            for domain, members in self._failure_domains.items()
        }
        domains = {d: m for d, m in domains.items() if m}
        sub = Platform(
            procs,
            default_bandwidth=self._default_bandwidth,
            failure_domains=domains or None,
        )
        for src in names:
            for dst in names:
                if src != dst and (src, dst) in self._bandwidths:
                    sub.set_bandwidth(src, dst, self._bandwidths[(src, dst)], symmetric=False)
        return sub

    def __repr__(self) -> str:
        return f"Platform(m={self.num_processors}, speeds=[{self.min_speed:g}..{self.max_speed:g}])"
