"""Root of the test suites.

pytest puts this directory on ``sys.path`` when it loads this file, so a
suite imports the helpers kept here (``padded_programs``) by module name.
"""
