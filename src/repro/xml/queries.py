"""Path-expression evaluation over XML graphs via reachability indexes.

Implements the paper's motivating query pattern (Section 1.1):

    "consider a simple path expression //fiction//author ... obtain all
    fiction and author elements, and then test if an author element is
    reachable from any fiction element in the XML graph."

:class:`XMLReachabilityEngine` wires an :class:`XMLDocument` to any
registered reachability scheme and evaluates descendant-axis path
expressions of the form ``//tag1//tag2//...//tagK`` (including through
IDREF edges, which is what makes this a *graph* problem rather than a
tree problem).
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.base import build_index
from repro.core.service import QueryService
from repro.exceptions import DatasetError
from repro.xml.document import XMLDocument, XMLElement

__all__ = ["XMLReachabilityEngine", "parse_path_expression",
           "parse_mixed_path"]

_PATH_RE = re.compile(r"^(//[A-Za-z_][\w.-]*)+$")
_MIXED_RE = re.compile(r"(/{1,2})([A-Za-z_][\w.-]*)")


def parse_path_expression(expression: str) -> list[str]:
    """Split ``//a//b//c`` into ``["a", "b", "c"]``.

    Raises
    ------
    DatasetError
        If the expression is not a pure descendant-axis path.
    """
    if not _PATH_RE.match(expression):
        raise DatasetError(
            f"unsupported path expression {expression!r}; expected "
            "//tag//tag//... (descendant axes only)")
    return expression.strip("/").split("//")


def parse_mixed_path(expression: str) -> list[tuple[str, str]]:
    """Split a mixed-axis path into ``(axis, tag)`` steps.

    ``"//site/region//item"`` → ``[("//", "site"), ("/", "region"),
    ("//", "item")]``.  Axes: ``/`` is the child axis (direct
    containment), ``//`` the descendant axis (reachability, including
    IDREF hops).  The expression must start with an axis.

    Raises
    ------
    DatasetError
        On anything that is not a sequence of ``/tag`` / ``//tag``
        steps.
    """
    steps = _MIXED_RE.findall(expression)
    reconstructed = "".join(axis + tag for axis, tag in steps)
    if not steps or reconstructed != expression:
        raise DatasetError(
            f"unsupported path expression {expression!r}; expected "
            "steps of the form /tag or //tag")
    return steps


class XMLReachabilityEngine:
    """Evaluate descendant path expressions with a reachability index."""

    def __init__(self, document: XMLDocument, scheme: str = "dual-i",
                 **scheme_options: Any) -> None:
        self.document = document
        self.graph = document.to_graph()
        self.index = build_index(self.graph, scheme=scheme,
                                 **scheme_options)

    # ------------------------------------------------------------------
    def is_descendant(self, ancestor: XMLElement,
                      descendant: XMLElement) -> bool:
        """``True`` iff ``descendant`` is reachable from ``ancestor``
        through containment and/or IDREF edges."""
        return self.index.reachable(ancestor.node_id, descendant.node_id)

    def evaluate(self, expression: str) -> list[XMLElement]:
        """Elements matching the final tag of ``expression``.

        ``//a//b//c`` returns every ``c`` element for which some chain
        ``a ⇝ b ⇝ c`` of reachability holds (elements may repeat roles
        only in genuinely nested/linked chains — each step is a strict
        reachability test between distinct elements, with self-matches
        allowed only when the element truly reaches itself through a
        cycle of references or is the same element at both ends of a
        reflexive step; plain XPath semantics for distinct tags).
        """
        steps = parse_path_expression(expression)
        # Candidate frontier: elements matching the first tag.
        frontier = self.document.by_tag(steps[0])
        for tag in steps[1:]:
            next_frontier = []
            candidates = self.document.by_tag(tag)
            for candidate in candidates:
                if any(source.node_id != candidate.node_id
                       and self.is_descendant(source, candidate)
                       for source in frontier):
                    next_frontier.append(candidate)
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def evaluate_path(self, expression: str) -> list[XMLElement]:
        """Evaluate a mixed-axis path (``/child`` and ``//descendant``).

        The first step anchors anywhere in the document (XPath's
        leading ``//``) or, for a leading single ``/``, at the root
        element only.  ``/`` steps follow direct containment edges;
        ``//`` steps follow full graph reachability (containment +
        IDREF), like :meth:`evaluate`.
        """
        steps = parse_mixed_path(expression)
        first_axis, first_tag = steps[0]
        if first_axis == "//":
            frontier = self.document.by_tag(first_tag)
        else:
            root = self.document.root
            frontier = [root] if root.tag == first_tag else []
        for axis, tag in steps[1:]:
            if not frontier:
                break
            if axis == "/":
                frontier = [child
                            for element in frontier
                            for child in element.children
                            if child.tag == tag]
            else:
                candidates = self.document.by_tag(tag)
                frontier = [candidate for candidate in candidates
                            if any(source.node_id != candidate.node_id
                                   and self.is_descendant(source,
                                                          candidate)
                                   for source in frontier)]
        # De-duplicate while preserving document order ( "/" steps can
        # reach one element through several parents).
        seen: set[int] = set()
        unique = []
        for element in frontier:
            if element.node_id not in seen:
                seen.add(element.node_id)
                unique.append(element)
        return unique

    def structural_join(self, ancestor_tag: str, descendant_tag: str
                        ) -> list[tuple[XMLElement, XMLElement]]:
        """All (a, d) pairs with ``a ⇝ d`` — the XML *structural join*.

        This is the paper's Section 1.1 evaluation pattern spelled out:
        "obtain all fiction and author elements, and then test if an
        author element is reachable from any fiction element".  When
        the scheme exposes label arrays (Dual-I, Dual-II, closure,
        interval — see
        :meth:`repro.core.base.ReachabilityIndex.label_arrays`) the
        cross product is evaluated by the vectorised kernel of
        :meth:`repro.core.service.QueryService.query_matrix`; other
        schemes fall back to its scalar loop.
        """
        ancestors = self.document.by_tag(ancestor_tag)
        descendants = self.document.by_tag(descendant_tag)
        if not ancestors or not descendants:
            return []
        matrix = QueryService(self.index).query_matrix(
            [a.node_id for a in ancestors],
            [d.node_id for d in descendants])
        return [(a, d)
                for a, row in zip(ancestors, matrix)
                for d, hit in zip(descendants, row)
                if hit and a.node_id != d.node_id]

    def count(self, expression: str) -> int:
        """Number of elements matched by ``expression`` (descendant-only
        paths use :meth:`evaluate`, mixed paths :meth:`evaluate_path`)."""
        if _PATH_RE.match(expression):
            return len(self.evaluate(expression))
        return len(self.evaluate_path(expression))

    def __repr__(self) -> str:
        return (f"XMLReachabilityEngine(elements="
                f"{self.document.num_elements}, "
                f"scheme={self.index.stats().scheme!r})")
