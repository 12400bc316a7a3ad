"""docs-sync: documentation stays pinned to code, one lint family.

Folds the previously separate docs mechanisms — the relative-link /
anchor checker (tests/test_docs.py), the architecture-page coverage
rule, and the stall-taxonomy table sync (tests/test_stall_taxonomy.py
doc assertions) — into one checker:

* every ``[text](target)`` relative link across ``docs/*.md``,
  ``ROADMAP.md`` and ``CHANGES.md`` must resolve, and a ``#fragment``
  must match a heading (GitHub anchor rules) in the target page;
* ``docs/architecture.md`` is the map: it must link every other docs
  page;
* every markdown page a module under ``src/`` cites by name
  (``docs/performance.md``, ``architecture.md``, ...) must exist, at
  the repo root or under ``docs/``;
* the stall-taxonomy tables after the
  ``<!-- stall-taxonomy:skip -->`` / ``<!-- stall-taxonomy:veto -->``
  markers in ``docs/performance.md`` must list exactly the
  ``SKIP_CLASSES`` / ``VETO_REASONS`` sets defined in
  ``src/repro/pipeline/core.py``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Optional, Set

from repro.lintkit.astutil import module_str_constants, \
    resolve_str_set
from repro.lintkit.base import Checker, Finding, LintContext

TAXONOMY_SOURCE = "src/repro/pipeline/core.py"
TAXONOMY_PAGE = "docs/performance.md"
TAXONOMY_TABLES = (("SKIP_CLASSES", "<!-- stall-taxonomy:skip -->"),
                   ("VETO_REASONS", "<!-- stall-taxonomy:veto -->"))

#: [text](target) — excluding images and in-code backticked brackets.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: A markdown page cited by name in source text.
CITATION_RE = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)(?!\w)")
ROW_RE = re.compile(r"\|\s*`([a-z-]+)`\s*\|")


def _strip_code(text: str) -> str:
    """Drop fenced code blocks and neutralize inline code spans (links
    inside code samples are illustrative, not navigable).  Inline
    spans are *replaced*, not deleted: a link whose entire text is a
    code span must keep matching LINK_RE."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`]*`", "code", text)


def _github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor transformation."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


class DocsSyncChecker(Checker):
    """Docs links and citations resolve; pinned tables match the
    code's sets."""

    name = "docs-sync"
    summary = ("relative links/anchors resolve, architecture.md maps "
               "every page, source citations resolve, taxonomy tables "
               "match the code")
    contract = (
        "Docs drift is one lint family: (1) every relative link and "
        "#anchor in docs/*.md, ROADMAP.md and CHANGES.md must "
        "resolve (GitHub anchor rules); (2) docs/architecture.md must "
        "link every other docs page; (3) every *.md page cited in "
        "src/ must exist at the repo root or under docs/; (4) the "
        "stall-taxonomy tables after the "
        "<!-- stall-taxonomy:skip/veto --> markers in "
        "docs/performance.md must list exactly the SKIP_CLASSES / "
        "VETO_REASONS frozensets of src/repro/pipeline/core.py.")
    codes = {
        "broken-link": "relative link target does not exist",
        "broken-anchor": "link fragment matches no heading",
        "unmapped-page": "docs page not linked from architecture.md",
        "dangling-citation": "source cites a markdown page that does "
                             "not exist",
        "taxonomy-drift": "taxonomy table out of sync with the code",
        "missing-marker": "taxonomy marker/table missing from the "
                          "docs page",
    }

    def run(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        self._check_links(ctx, findings)
        self._check_coverage(ctx, findings)
        self._check_citations(ctx, findings)
        self._check_taxonomy(ctx, findings)
        return findings

    # -- links ------------------------------------------------------------

    def _links_of(self, ctx: LintContext, page: str) -> List[str]:
        return LINK_RE.findall(_strip_code(ctx.read(page)))

    def _anchors_of(self, ctx: LintContext, page: str) -> Set[str]:
        text = re.sub(r"```.*?```", "", ctx.read(page),
                      flags=re.DOTALL)
        return {_github_anchor(h) for h in HEADING_RE.findall(text)}

    def _check_links(self, ctx: LintContext,
                     findings: List[Finding]) -> None:
        for page in ctx.doc_files():
            base_dir = os.path.dirname(ctx.abspath(page))
            for target in self._links_of(ctx, page):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                    continue  # URL scheme
                path_part, _, fragment = target.partition("#")
                if path_part:
                    dest = os.path.normpath(
                        os.path.join(base_dir, path_part))
                else:
                    dest = ctx.abspath(page)  # same-page anchor
                line = self._link_line(ctx, page, target)
                if not os.path.exists(dest):
                    findings.append(self.finding(
                        page, line,
                        "link target %r does not exist" % target,
                        symbol=target, code="broken-link"))
                    continue
                if fragment and dest.endswith(".md"):
                    rel_dest = os.path.relpath(
                        dest, ctx.root).replace(os.sep, "/")
                    if fragment not in self._anchors_of(ctx, rel_dest):
                        findings.append(self.finding(
                            page, line,
                            "link %r names no heading anchor in %s"
                            % (target, rel_dest),
                            symbol=target, code="broken-anchor"))

    def _link_line(self, ctx: LintContext, page: str,
                   target: str) -> int:
        for number, line in enumerate(ctx.read(page).splitlines(), 1):
            if "(%s)" % target in line:
                return number
        return 0

    def _check_coverage(self, ctx: LintContext,
                        findings: List[Finding]) -> None:
        arch = "docs/architecture.md"
        if not ctx.exists(arch):
            findings.append(self.finding(
                arch, 0, "docs/architecture.md is missing — it is the "
                "map that links every docs page",
                code="unmapped-page"))
            return
        linked = {os.path.basename(t.partition("#")[0])
                  for t in self._links_of(ctx, arch)}
        for page in ctx.doc_files():
            name = os.path.basename(page)
            if name == "architecture.md" \
                    or not page.startswith("docs/"):
                continue
            if name not in linked:
                findings.append(self.finding(
                    arch, 0,
                    "docs/architecture.md does not link %s — every "
                    "docs page must be reachable from the map" % name,
                    symbol=name, code="unmapped-page"))

    def _check_citations(self, ctx: LintContext,
                         findings: List[Finding]) -> None:
        for path in ctx.python_files("src"):
            for number, line in enumerate(ctx.read(path).splitlines(),
                                          1):
                for cited in CITATION_RE.findall(line):
                    if ctx.exists(cited) or ctx.exists("docs/" + cited):
                        continue
                    findings.append(self.finding(
                        path, number,
                        "cites %s, which is neither a repo-root nor a "
                        "docs/ page" % cited,
                        symbol=cited, code="dangling-citation"))

    # -- taxonomy tables --------------------------------------------------

    def _code_sets(self, ctx: LintContext
                   ) -> Optional[Dict[str, Set[str]]]:
        tree = ctx.tree(TAXONOMY_SOURCE) \
            if ctx.exists(TAXONOMY_SOURCE) else None
        if tree is None:
            return None
        constants = module_str_constants(tree)
        sets: Dict[str, Set[str]] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id in dict(TAXONOMY_TABLES):
                resolved = resolve_str_set(node.value, constants)
                if resolved is not None:
                    sets[node.targets[0].id] = resolved
        return sets

    def _documented(self, ctx: LintContext,
                    marker: str) -> Optional[Set[str]]:
        text = ctx.read(TAXONOMY_PAGE)
        if marker not in text:
            return None
        names: List[str] = []
        in_table = False
        for line in text.split(marker, 1)[1].splitlines():
            row = ROW_RE.match(line)
            if row:
                in_table = True
                names.append(row.group(1))
            elif in_table and not line.startswith("|"):
                break  # table ended
        return set(names) if names else None

    def _check_taxonomy(self, ctx: LintContext,
                        findings: List[Finding]) -> None:
        if not ctx.exists(TAXONOMY_PAGE):
            findings.append(self.finding(
                TAXONOMY_PAGE, 0,
                "taxonomy docs page is missing", code="missing-marker"))
            return
        code_sets = self._code_sets(ctx)
        for set_name, marker in TAXONOMY_TABLES:
            documented = self._documented(ctx, marker)
            if documented is None:
                findings.append(self.finding(
                    TAXONOMY_PAGE, 0,
                    "no %s table found after marker %r"
                    % (set_name, marker),
                    symbol=set_name, code="missing-marker"))
                continue
            in_code = (code_sets or {}).get(set_name)
            if in_code is None:
                findings.append(self.finding(
                    TAXONOMY_SOURCE, 0,
                    "%s is not a statically resolvable frozenset of "
                    "string constants" % set_name,
                    symbol=set_name, code="taxonomy-drift"))
                continue
            for name in sorted(in_code - documented):
                findings.append(self.finding(
                    TAXONOMY_PAGE, 0,
                    "%s member %r is undocumented in the %s table"
                    % (set_name, name, marker),
                    symbol=name, code="taxonomy-drift"))
            for name in sorted(documented - in_code):
                findings.append(self.finding(
                    TAXONOMY_PAGE, 0,
                    "documented %s entry %r no longer exists in the "
                    "code" % (set_name, name),
                    symbol=name, code="taxonomy-drift"))
