"""Out-of-order core models (Table II) and thread contexts."""
