"""Data substrate: datasets, object store, WebDataset shards."""

from .datasets import DATASETS, DatasetSpec, get_dataset
from .storage import DataBill, ObjectStore, StoreLink
from .webdataset import (
    DECODERS,
    ShardCache,
    WebDataset,
    batched,
    decode_sample,
    iterate_shard,
    write_shard,
    write_shards,
)

__all__ = [
    "DATASETS",
    "DECODERS",
    "DataBill",
    "DatasetSpec",
    "ObjectStore",
    "ShardCache",
    "StoreLink",
    "WebDataset",
    "batched",
    "decode_sample",
    "get_dataset",
    "iterate_shard",
    "write_shard",
    "write_shards",
]
