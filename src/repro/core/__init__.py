"""ReMAP's contribution: the shared SPL fabric, queues, tables, controller."""
