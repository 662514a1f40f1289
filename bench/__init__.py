"""End-to-end benchmark of the durable ``repro serve`` stack (see README.md)."""
