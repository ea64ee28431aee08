"""The testbed compiler; import its modules directly (``bugsteps.toy.bugs`` etc.)."""
