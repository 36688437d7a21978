//! Quantisation substrate for the JUNO reproduction.
//!
//! This crate implements the offline machinery behind the IVFPQ pipeline the
//! paper analyses (Section 2.1) and builds upon (Sections 4–5):
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ initialisation and empty
//!   cluster repair. Used for both the coarse (IVF) quantiser and the
//!   per-subspace "second" clusters that form the PQ codebook.
//! * [`codebook`] — the per-subspace entry sets (`E` entries of dimension `M`).
//! * [`pq`] — the [`ProductQuantizer`]: training on
//!   residuals, encoding search points, decoding, and the *dense* L2-LUT
//!   construction used by the FAISS-style baseline.
//! * [`ivf`] — the inverted file index: coarse centroids, inverted lists, and
//!   the filtering stage (choose the `nprobs` closest clusters).
//! * [`layout`] — [`IvfListCodes`], the PQ codes
//!   reordered IVF-list-contiguously so the online ADC scan streams memory
//!   sequentially.
//! * [`scan`] — the one scan driver over that layout: the cluster visit, the
//!   plan → seed → schedule → chunk scan → gather batch pipeline, its arena
//!   and counters, shared by every engine through [`scan::ScanEngine`].
//!
//! The JUNO engine (`juno-core`) replaces the dense L2-LUT construction with a
//! selective, RT-core mapped one, but shares everything else in this crate —
//! including the scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod codebook;
pub mod ivf;
pub mod kmeans;
pub mod layout;
pub mod mapped;
pub mod pq;
pub mod residency;
pub mod scan;

pub use codebook::Codebook;
pub use ivf::{IvfIndex, IvfTrainConfig};
pub use kmeans::{KMeans, KMeansConfig};
pub use layout::{BlockCodes, IvfListCodes};
pub use pq::{EncodedPoints, PqTrainConfig, ProductQuantizer};
pub use residency::ResidencyStats;
