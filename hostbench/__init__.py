"""Host-time benchmark of the Anton network simulator (see README.md)."""
