"""Constraint and diagnostic records produced by checking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..logic import Bind, TypeEnv
from ..syntax import RType, SourceSpan, pred_str, type_str


@dataclass
class Constraint:
    kind: str  # "wf" | "sub"
    env: TypeEnv
    lhs: Optional[RType]  # None for wf
    rhs: RType
    span: SourceSpan
    rule: str
    cid: int
    unit: str = ""  # the function/method being checked

    def describe(self) -> str:
        if self.kind == "wf":
            return f"WF {type_str(self.rhs)}"
        return f"{type_str(self.lhs)} <: {type_str(self.rhs)}"

    def to_json(self) -> dict:
        env_items = []
        for item in self.env.items:
            if isinstance(item, Bind):
                env_items.append({"bind": item.name,
                                  "type": type_str(item.rtype)})
            else:
                env_items.append({"guard": pred_str(item.pred)})
        return {
            "id": self.cid,
            "kind": self.kind,
            "rule": self.rule,
            "env": env_items,
            "lhs": type_str(self.lhs) if self.lhs is not None else None,
            "rhs": type_str(self.rhs),
            "span": {"file": self.span.file, "line": self.span.line,
                     "col": self.span.col},
        }


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    span: SourceSpan
    rule: str
    message: str
    vc: Optional[str] = None

    def render(self) -> str:
        loc = f"{self.span.file}:{self.span.line}:{self.span.col}"
        out = f"{loc}: {self.severity}[{self.rule}]: {self.message}"
        if self.vc:
            out += f"\n  failed VC: {self.vc}"
        return out

    def to_json(self) -> dict:
        return {"severity": self.severity, "rule": self.rule,
                "message": self.message, "vc": self.vc,
                "span": {"file": self.span.file, "line": self.span.line,
                         "col": self.span.col}}
