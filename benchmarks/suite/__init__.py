"""Spec-to-verdict benchmark; see README.md in this directory."""
