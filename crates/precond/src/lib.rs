//! # spcg-precond
//!
//! Preconditioners for the SPCG workspace: ILU(0), ILU(K) with level-of-fill,
//! IC(0), Jacobi, the level-free approximate-inverse family (FSAI and
//! static-pattern SPAI, which apply as pure SpMVs with zero
//! synchronization), and the [`Preconditioner`] trait PCG consumes.
//! Triangular applications run either sequentially or level-parallel
//! through the schedules built by `spcg-wavefront`. Factorization
//! breakdowns are repairable through [`shifted_factorization`], which
//! retries on the diagonally shifted `A + αI` with escalating `α`.

#![warn(missing_docs)]

pub mod ainv;
pub mod factors;
pub mod fsai;
pub mod ic0;
pub mod ick;
pub mod ilu0;
pub mod iluk;
pub mod jacobi;
pub mod mixed;
pub mod sai;
pub mod shifted;
pub mod traits;

pub use ainv::AinvPreconditioner;
pub use factors::{ExecutionStrategy, IluFactors};
pub use fsai::FsaiPreconditioner;
pub use ic0::ic0;
pub use ick::{ick, ick_capped};
pub use ilu0::{ilu0, ilu0_probed, ilu_refresh, ilu_refresh_probed};
pub use iluk::{
    iluk, iluk_pattern_matrix, iluk_pattern_matrix_capped, iluk_probed, iluk_symbolic,
    iluk_symbolic_capped, SymbolicIluk,
};
pub use jacobi::JacobiPreconditioner;
pub use mixed::{ilu0_mixed, MixedPrecisionIlu};
pub use sai::{SaiPattern, SaiPreconditioner};
pub use shifted::{
    diag_scale, shifted_factorization, shifted_factorization_probed, FactorError, FactorKind,
    ShiftPolicy, ShiftedFactors,
};
pub use traits::{IdentityPreconditioner, Preconditioner};
