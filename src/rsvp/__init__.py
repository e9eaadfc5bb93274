"""Response-supervised two-stage pre-training for customer intent detection.

The pipeline pre-trains a compact transformer conversational encoder on
utterance/response pairs (response retrieval, then response generation)
and fine-tunes an intent classifier with cross-entropy plus an
unsupervised dropout-consistency contrastive term. Everything runs on a
small NumPy reverse-mode autodiff core.
"""
from .autodiff import Tensor, backward, no_grad, precision
from .config import StageConfig, load_config
from .losses import (
    classification_loss,
    combined_finetune_loss,
    generation_loss,
    multilabel_loss,
    retrieval_loss,
    unsup_contrastive_loss,
)
from .metrics import Prediction, accuracy, in_batch_recall_at_1, mrr_at_k, multilabel_metrics
from .model import (
    ConversationalEncoder,
    EncoderConfig,
    IntentClassifier,
    ResponseDecoder,
    init_decoder_from_encoder,
)
from .optim import Parameter, adamw_step
from .rng import SeedHub
from .synth import gen_data
from .text import DialogueRecord, EncodedExample, Vocab, build_vocab, encode, load_jsonl, preprocess, split
from .training import (
    PreparedData,
    RunReport,
    finetune,
    prepare,
    pretrain_generation,
    pretrain_retrieval,
    run_baseline_classifier,
    run_rsvp,
    run_sweep,
)

__version__ = "0.1.0"
