"""The Bifrost DSL: YAML-based strategy documents.

``compile_document`` turns DSL text into the formal model plus deployment
facts; ``serialize`` renders a model back to text.  The YAML-subset parser
(:mod:`repro.dsl.yaml_lite`) is built from scratch — no external YAML
dependency.
"""

from .compiler import CompiledStrategy, compile_document
from .deployment import DeployedService, Deployment
from .errors import DslError
from .serializer import serialize, to_document
from .yaml_lite import YamlError, dumps, loads

__all__ = [
    "compile_document",
    "CompiledStrategy",
    "DeployedService",
    "Deployment",
    "DslError",
    "dumps",
    "loads",
    "serialize",
    "to_document",
    "YamlError",
]
