"""Multimodal RNN caption generation and image-sentence retrieval."""

__version__ = "0.1.0"

from .corpus import (CaptionedExample, DatasetSplit, ImageFeatureStore,
                     SynthSpec, Vocabulary, build_vocabulary,
                     generate_synthetic_corpus, load_features, save_features,
                     tokenize)
from .estimator import MRNNCaptioner
from .evaluation import (BleuScore, RecallCurve, RetrievalMetrics, bleu,
                         corpus_perplexity, generation_bleu, recall_curve,
                         retrieval_eval, shortlist)
from .inference import GenerationConfig, generate, sentence_log2prob
from .model import (ForwardTrace, Gradients, ModelConfig, ModelParams, Packing,
                    backward_batch, backward_sentence, forward_batch,
                    forward_sentence, forward_step, image_term, load_checkpoint,
                    nearest_words, save_checkpoint, target_log2prob)
from .numerics import Rng, init_matrix, matvec, relu, scaled_tanh, softmax
from .training import (TrainConfig, TrainReport, TrainingDiverged, cost,
                       gradient_check, train)
from .validation import NotFittedError

__all__ = [
    "BleuScore", "CaptionedExample", "DatasetSplit", "ForwardTrace",
    "GenerationConfig", "Gradients", "ImageFeatureStore", "MRNNCaptioner",
    "ModelConfig", "ModelParams", "NotFittedError", "Packing", "RecallCurve",
    "RetrievalMetrics", "Rng", "SynthSpec", "TrainConfig", "TrainReport",
    "TrainingDiverged", "Vocabulary", "backward_batch", "backward_sentence", "bleu",
    "build_vocabulary", "corpus_perplexity", "cost", "forward_batch", "forward_sentence",
    "forward_step", "generate", "generate_synthetic_corpus", "generation_bleu",
    "gradient_check", "image_term", "init_matrix", "load_checkpoint", "load_features",
    "matvec", "nearest_words", "recall_curve", "relu", "retrieval_eval",
    "save_checkpoint", "save_features", "scaled_tanh", "sentence_log2prob",
    "shortlist", "softmax", "target_log2prob", "tokenize", "train",
]
