"""Congruence closure for equality with uninterpreted functions.

Terms are canonical skeletons; distinct constants of the same sort refuse
to merge, which is how string-literal distinctness and true/false conflict
detection fall out.

The closure is the use-list and signature-table algorithm of Downey,
Sethi and Tarjan, as presented by Nieuwenhuis and Oliveras ("Fast
congruence closure and extensions", 2007): every application is indexed
by its signature, its head applied to the representatives of its
arguments, and a merge re-signs only the applications that use the
absorbed class.  Two applications whose signatures meet are queued for
merging, so the partition is congruence-closed after every `add` and
`merge`."""

from __future__ import annotations

from .normal import EufLit, Skel


class CongruenceClosure:
    def __init__(self):
        self.parent: dict[Skel, Skel] = {}
        self.uses: dict[Skel, list] = {}  # representative -> applications
        self.sigs: dict[tuple, Skel] = {}  # signature -> application
        self.terms: set[Skel] = set()
        self.diseqs: list[tuple[Skel, Skel]] = []
        self.conflict: bool = False
        self._classes: dict | None = None

    def copy(self) -> "CongruenceClosure":
        """An independent closure in the same state, to extend while this
        one stays as it is."""
        new = CongruenceClosure.__new__(CongruenceClosure)
        new.parent = dict(self.parent)
        new.uses = {rep: list(apps) for rep, apps in self.uses.items()}
        new.sigs = dict(self.sigs)
        new.terms = set(self.terms)
        new.diseqs = list(self.diseqs)
        new.conflict = self.conflict
        # shared until either side's partition changes: classes() builds
        # a new map then, and neither mutates one
        new._classes = self._classes
        return new

    # -- union-find -----------------------------------------------------------

    def add(self, t: Skel):
        if t in self.terms:
            return
        self.terms.add(t)
        self.parent[t] = t
        self.uses[t] = []
        self._classes = None
        if t.kind == "app":
            for a in t.args:
                self.add(a)
                self.uses[self.find(a)].append(t)
            # a fresh application has no uses, so joining its twin's
            # class cascades nothing
            twin = self.sigs.setdefault(self._signature(t), t)
            if twin is not t:
                self.parent[t] = self.find(twin)

    def find(self, t: Skel) -> Skel:
        root = t
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[t] is not root:
            self.parent[t], t = root, self.parent[t]
        return root

    def _signature(self, app: Skel) -> tuple:
        return (app.head, *map(self.find, app.args))

    def merge(self, a: Skel, b: Skel):
        self.add(a)
        self.add(b)
        pending = [(a, b)]
        while pending:
            ra, rb = map(self.find, pending.pop())
            if ra is rb:
                continue
            if ra.kind == "const" and rb.kind == "const":
                self.conflict = True
                continue
            # constants stay representatives; otherwise the class with
            # more uses does, so fewer applications are re-signed
            if rb.kind == "const" or (ra.kind != "const" and
                                      len(self.uses[ra]) < len(self.uses[rb])):
                ra, rb = rb, ra
            self.parent[rb] = ra
            self._classes = None
            moved = self.uses.pop(rb)
            for app in moved:
                twin = self.sigs.setdefault(self._signature(app), app)
                if twin is not app:
                    pending.append((app, twin))
            self.uses[ra].extend(moved)

    # -- API -------------------------------------------------------------------

    def assert_lit(self, lit: EufLit):
        if lit.eq:
            self.merge(lit.t1, lit.t2)
        else:
            self.add(lit.t1)
            self.add(lit.t2)
            self.diseqs.append((lit.t1, lit.t2))

    def close(self) -> bool:
        """False on a constant conflict or a violated disequality; the
        partition itself is already closed."""
        if self.conflict:
            return False
        return all(self.find(a) is not self.find(b) for a, b in self.diseqs)

    def classes(self) -> dict:
        """Representative -> members in the iteration order of `terms`;
        built once per partition, so callers must not mutate it."""
        if self._classes is None:
            out: dict[Skel, list] = {}
            for t in self.terms:
                out.setdefault(self.find(t), []).append(t)
            self._classes = out
        return self._classes
