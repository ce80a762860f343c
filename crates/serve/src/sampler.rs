//! The virtual crowd: sampling what an annotator does with a question.
//!
//! Everything random about one assignment — whether the annotator drops
//! it, how long they take, and what label they give — is drawn from a
//! dedicated RNG stream derived from `(sampling_seed, assignment_id)`.
//! The draw therefore depends only on the assignment id, never on which
//! thread performs it or in what order: the service samples a batch on
//! however many pool threads it likes and still produces the exact trace
//! of a single-threaded run.

use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool};
use crowdrl_types::rng::{derive_seed, seeded};
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, ObjectId, SimTime};
use rand::Rng;

/// A sampling job handed to the virtual crowd.
#[derive(Debug, Clone, Copy)]
pub struct SampleJob {
    /// The ledger id whose stream to use.
    pub id: AssignmentId,
    /// The object asked about.
    pub object: ObjectId,
    /// The annotator asked.
    pub annotator: AnnotatorId,
    /// The object's true class (simulation-only knowledge, like
    /// [`Platform`](crowdrl_sim::Platform)'s).
    pub truth: ClassId,
}

/// Sample what the annotator does with one assignment, from its derived
/// stream: `Some((label, latency))` if they answer, `None` if they
/// silently drop the task (only the timeout will resolve it).
pub fn sample_outcome(
    sampling_seed: u64,
    job: SampleJob,
    pool: &AnnotatorPool,
    dynamics: &[AnnotatorDynamics],
) -> Option<(ClassId, SimTime)> {
    let mut rng = seeded(derive_seed(sampling_seed, job.id.0));
    let dyn_a = &dynamics[job.annotator.index()];
    // Fixed draw order (drop, latency, label) so outcomes are a pure
    // function of the job — do not reorder.
    let dropped = rng.random::<f64>() < dyn_a.drop_rate;
    let latency = dyn_a.latency.sample(&mut rng);
    let label = pool.sample_answer(job.annotator, job.truth, &mut rng);
    (!dropped).then_some((label, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_sim::{DynamicsSpec, PoolSpec};

    #[test]
    fn outcomes_are_a_pure_function_of_the_job() {
        let mut rng = seeded(1);
        let pool = PoolSpec::new(3, 1).generate(3, &mut rng).unwrap();
        let dynamics = DynamicsSpec::default().generate(&pool, &mut rng).unwrap();
        let job = SampleJob {
            id: AssignmentId(17),
            object: ObjectId(4),
            annotator: AnnotatorId(2),
            truth: ClassId(1),
        };
        let a = sample_outcome(99, job, &pool, &dynamics);
        let b = sample_outcome(99, job, &pool, &dynamics);
        assert_eq!(a, b);
        // Different assignment ids draw from different streams.
        let draws: Vec<_> = (0..8)
            .map(|i| {
                sample_outcome(
                    99,
                    SampleJob {
                        id: AssignmentId(i),
                        ..job
                    },
                    &pool,
                    &dynamics,
                )
            })
            .collect();
        assert!(draws.iter().any(|d| *d != draws[0]));
    }

    #[test]
    fn a_full_drop_rate_always_drops() {
        let mut rng = seeded(2);
        let pool = PoolSpec::new(1, 0).generate(2, &mut rng).unwrap();
        let mut dynamics = DynamicsSpec::default().generate(&pool, &mut rng).unwrap();
        dynamics[0].drop_rate = 1.0;
        for i in 0..20 {
            let job = SampleJob {
                id: AssignmentId(i),
                object: ObjectId(0),
                annotator: AnnotatorId(0),
                truth: ClassId(0),
            };
            assert_eq!(sample_outcome(3, job, &pool, &dynamics), None);
        }
    }
}
