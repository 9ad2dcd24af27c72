//! One module per reproduced figure/table. Each exposes a `run`
//! function taking a scale parameter and returning a
//! [`crate::report::Report`] that prints like the paper's artifact.

pub mod bloom;
pub mod bushy;
pub mod chaos;
pub mod cluster_chaos;
pub mod complexity;
pub mod crossover;
pub mod dist;
pub mod fig1_magic;
pub mod fig3_orders;
pub mod fig4_cardinality;
pub mod fig5_classes;
pub mod fig6_taxonomy;
pub(crate) mod forwarder;
pub mod local_semijoin;
pub mod memory_chaos;
pub mod mutation_chaos;
pub mod recovery_chaos;
pub mod soak;
pub(crate) mod storm;
pub mod table1_components;
pub mod technique;
pub mod udf;
