"""go_boilerpipe_ray — a Ray-Data-native main-content extraction engine.

Re-implements the query/data-processing capabilities of the reference
``jlubawy/go-boilerpipe`` (read-only at /root/reference) as a brand-new
engine built on ``ray.data.Dataset`` + Arrow batches:

- ``kernel``     pure-Python per-document extractor (no Ray imports); clones
                 the reference's parser/filter semantics bit-exactly.
- ``sources``    spans-table readers/writers and deterministic fixture
                 generators (FIXTURES.md families F1-F5).
- ``stages``     the Ray Data batch transform: a stateless extractor run
                 as tasks.
- ``pipelines``  end-to-end extraction pipeline builders.
- ``functions``  large-scale training-data ops (dedup, similarity search,
                 text analysis, multimodal plumbing).
- ``state``      checkpoint/resume manifest for partitioned output.
"""

__version__ = "0.1.0"

# Engine version; the reference reports boilerpipe.Version = "0.5.0"
# (boilerpipe.go:15-16) — this engine tracks its own line.
VERSION = "2.0.0"
