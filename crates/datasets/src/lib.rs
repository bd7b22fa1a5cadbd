//! # fsim-datasets
//!
//! Synthetic dataset generators reproducing the *statistical shape* of the
//! paper's evaluation data: the eight Table-4 datasets, the DBIS
//! bibliographic network (Tables 7–8), the Amazon-style co-purchase graph
//! (Table 6) and evolving graph versions with alignment ground truth
//! (Table 9). The paper's data cannot be shipped, so each dataset is a
//! seeded synthetic graph with the original's shape (see [`table4`]).

#![warn(missing_docs)]

pub mod copurchase;
pub mod dbis;
pub mod evolving;
pub mod table4;

pub use copurchase::copurchase;
pub use dbis::{dbis, Dbis, DbisConfig};
pub use evolving::{compose_ground_truth, evolve, reify_edges, Churn};
pub use table4::{DatasetSpec, TABLE4};
