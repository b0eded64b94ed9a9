"""Integrated diagnostic services: detection, dissemination, diagnostic DAS,
and the federated OBD baseline."""
