"""lingvo__postagger_ner_ru_dnn_ray — a from-scratch Ray-Data-native
knowledge-graph construction engine.

Reimplements the query/data-processing capabilities of the reference
zamgi/lingvo--PosTagger-NER-ru-dnn (C#) as an idiomatic Ray Data pipeline:

    transcripts (conv_id, turn_idx, role, text, tool, ts)
      -> map_batches(kg_stage_fn)     # stateless tasks over the per-turn
                                      #   kernel (stages/kernel.py): tokenize ->
                                      #   POS + NER DNN tagging -> triple
                                      #   extraction -> entity linking
      -> write triples Parquet, hash-partitioned by conv_id
      -> per partition: edges, then nodes    # conflation / canonicalization
      -> lineage manifests per table and partition (for resume)

No code is ported from the reference; behavior parity is established from
the reference sources cited per-module (file:line) and covered by
conformance tests in tests/.
"""

__version__ = "0.1.0"
