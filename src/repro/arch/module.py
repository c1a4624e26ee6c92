"""Hierarchical module composition.

A :class:`Module` is a named container of ports, elements (primitives or
instances of other modules) and point-to-point connections, in the spirit
of CGRA-ME's architecture description: "Detailed functional blocks and
routing structures can be constructed directly within this language, and
also the higher level connectivity such as how top-level blocks are
integrated together."

Every edit goes through a mutator (``add_port``, ``add_fu``/``add_mux``/
``add_reg``/``add_instance``, ``connect``), and every mutator bumps the
module's :attr:`Module.revision`; names and primitive parameters are
read-only.  A description computed from a module tree therefore stays
current while the revision of every definition it reaches is unchanged
(the mapping service keys its architecture memo this way).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..dfg.opcodes import OpCode
from .ports import THIS, ArchError, Direction, Port, PortRef, valid_name
from .primitives import FunctionalUnit, Multiplexer, Primitive, Register


class Module:
    """A composable hardware module."""

    def __init__(self, name: str):
        if not valid_name(name):
            raise ArchError(f"invalid module name {name!r}")
        self._name = name
        self._ports: dict[str, Port] = {}
        self._elements: dict[str, Primitive | Module] = {}
        self._connections: list[tuple[PortRef, PortRef]] = []
        self._revision = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def revision(self) -> int:
        """Number of edits made to this definition so far."""
        return self._revision

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(self, name: str, direction: Direction) -> Port:
        if name in self._ports:
            raise ArchError(f"duplicate port {name!r} on module {self.name!r}")
        port = Port(name, direction)
        self._ports[name] = port
        self._revision += 1
        return port

    def add_input(self, name: str) -> Port:
        return self.add_port(name, Direction.IN)

    def add_output(self, name: str) -> Port:
        return self.add_port(name, Direction.OUT)

    def _add_element(self, name: str, element: Primitive | Module) -> None:
        if not valid_name(name):
            raise ArchError(f"invalid element name {name!r}")
        if name in self._elements:
            raise ArchError(f"duplicate element {name!r} in module {self.name!r}")
        self._elements[name] = element
        self._revision += 1

    def add_fu(
        self,
        name: str,
        ops: Iterable[OpCode | str],
        latency: int = 0,
        ii: int = 1,
    ) -> FunctionalUnit:
        parsed = [OpCode.from_name(op) if isinstance(op, str) else op for op in ops]
        fu = FunctionalUnit(parsed, latency=latency, ii=ii)
        self._add_element(name, fu)
        return fu

    def add_mux(self, name: str, num_inputs: int) -> Multiplexer:
        mux = Multiplexer(num_inputs)
        self._add_element(name, mux)
        return mux

    def add_reg(self, name: str) -> Register:
        reg = Register()
        self._add_element(name, reg)
        return reg

    def add_instance(self, name: str, module: "Module") -> "Module":
        """Instantiate another module inside this one (shared definition)."""
        if module is self:
            raise ArchError("a module cannot instantiate itself")
        self._add_element(name, module)
        return module

    def connect(self, src: PortRef | str, dst: PortRef | str) -> None:
        """Connect a source port to a sink port.

        Sources are the module's own inputs or element outputs; sinks are
        the module's own outputs or element inputs.  Fanout is expressed by
        connecting one source to several sinks; fan-in requires an explicit
        :class:`~repro.arch.primitives.Multiplexer`.
        """
        src_ref = PortRef.parse(src) if isinstance(src, str) else src
        dst_ref = PortRef.parse(dst) if isinstance(dst, str) else dst
        if self._ref_direction(src_ref) is not Direction.OUT:
            raise ArchError(f"{src_ref} is not a legal source in {self.name!r}")
        if self._ref_direction(dst_ref) is not Direction.IN:
            raise ArchError(f"{dst_ref} is not a legal sink in {self.name!r}")
        self._connections.append((src_ref, dst_ref))
        self._revision += 1

    def _ref_direction(self, ref: PortRef) -> Direction:
        """Effective direction of a reference *as seen inside this module*.

        A module input is a source internally; an element output is a
        source; and vice versa for sinks.
        """
        if ref.element == THIS:
            if ref.port not in self._ports:
                raise ArchError(f"module {self.name!r} has no port {ref.port!r}")
            port = self._ports[ref.port]
            return Direction.OUT if port.direction is Direction.IN else Direction.IN
        element = self._elements.get(ref.element)
        if element is None:
            raise ArchError(f"module {self.name!r} has no element {ref.element!r}")
        if isinstance(element, Module):
            port = element._ports.get(ref.port)
            if port is None:
                raise ArchError(
                    f"instance {ref.element!r} ({element.name}) has no port {ref.port!r}"
                )
            return port.direction
        return element.port(ref.port).direction

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def ports(self) -> dict[str, Port]:
        return dict(self._ports)

    @property
    def elements(self) -> dict[str, "Primitive | Module"]:
        return dict(self._elements)

    @property
    def connections(self) -> tuple[tuple[PortRef, PortRef], ...]:
        return tuple(self._connections)

    def element(self, name: str) -> "Primitive | Module":
        try:
            return self._elements[name]
        except KeyError:
            raise ArchError(f"module {self.name!r} has no element {name!r}") from None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Collect local wiring problems (single-driver rule, etc.)."""
        issues: list[str] = []
        drivers: dict[PortRef, int] = {}
        for _, dst in self._connections:
            drivers[dst] = drivers.get(dst, 0) + 1
        for ref, count in drivers.items():
            if count > 1:
                issues.append(
                    f"{self.name}: sink {ref} has {count} drivers "
                    "(insert an explicit multiplexer)"
                )
        for name, element in self._elements.items():
            if isinstance(element, Module):
                issues.extend(element.validate())
            elif isinstance(element, FunctionalUnit):
                connected = {
                    dst.port for _, dst in self._connections if dst.element == name
                }
                for i in range(element.num_operand_ports):
                    if f"in{i}" not in connected:
                        issues.append(
                            f"{self.name}: operand port {name}.in{i} is unconnected"
                        )
        return issues

    def validate_strict(self) -> None:
        issues = self.validate()
        if issues:
            raise ArchError("; ".join(issues))

    # ------------------------------------------------------------------
    def referenced_modules(self) -> dict[str, "Module"]:
        """All module definitions reachable from this one (incl. itself)."""
        seen: dict[str, Module] = {}

        def walk(module: Module) -> None:
            if module.name in seen:
                if seen[module.name] is not module:
                    raise ArchError(
                        f"two distinct module definitions named {module.name!r}"
                    )
                return
            seen[module.name] = module
            for element in module._elements.values():
                if isinstance(element, Module):
                    walk(element)

        walk(self)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Module({self.name!r}, ports={len(self._ports)}, "
            f"elements={len(self._elements)})"
        )
