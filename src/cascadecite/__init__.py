"""Citation cascade growth prediction from per-level degree-sequence encodings."""

# The one version literal: config.TOOL_VERSION and pyproject.toml read it.
__version__ = "0.2.0"
