import os
import sys

import hypothesis

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# derandomize: every run draws the same examples, so a verdict does not
# change from run to run (and no example database is kept)
hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")
