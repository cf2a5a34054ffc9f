//! A per-thread pool of warm networks, keyed by the factory that built
//! them.
//!
//! Server-side evaluation, worker training rounds and distillation
//! students all follow the same pattern: build a network with the model
//! factory, then overwrite every parameter with `set_state_vector`. The
//! factory's work (seeding an RNG, Kaiming-initialising every weight,
//! allocating every buffer) is thrown away at once. [`take`] skips it by
//! handing out a network this thread used before and returned with
//! [`give`].
//!
//! # Why a reused network computes the same bits
//!
//! [`take`] installs the caller's **full** state vector (trainable
//! parameters and frozen tracked state alike) and zeroes every gradient
//! before it returns, so every number a network carries is the caller's.
//! Everything else a layer holds is scratch that a forward pass
//! overwrites before reading: activation and gradient arenas, cached
//! inputs, ReLU masks, max-pool routing, conv lowering buffers. A buffer
//! sized for another batch is resized in place. A pooled network is
//! therefore indistinguishable from `factory(seed)` followed by
//! `set_state_vector(state)` — the argument the loopback transport's
//! persistent workers already rely on. `tests/netpool_identity.rs` in
//! `goldfish-serve` pins it against a deliberately dirtied pool.
//!
//! # Keys and ownership
//!
//! An entry is keyed by the identity of the factory's `Arc` allocation
//! and holds only a [`Weak`] to it. The weak reference keeps the
//! allocation (not the factory) alive, so no other factory can be
//! allocated at the same address while the entry exists: an entry never
//! serves a different factory, and a re-created factory (a new `Arc`
//! around the same closure) gets an entry of its own. Entries of dropped
//! factories are pruned whenever a new entry is made.
//!
//! Each thread owns its own pool, so no lock is taken and no network
//! crosses threads. Compute-pool scopes that spawn threads start with an
//! empty pool and fall back to the factory, exactly as before. At most
//! [`MAX_IDLE`] networks per factory stay parked on a thread.
//!
//! The factory must build the same architecture for every seed. The
//! pool (like the per-round code it replaces) calls it with seed 0.

use std::cell::RefCell;
use std::sync::Weak;

use goldfish_nn::Network;

use crate::ModelFactory;

type Factory = dyn Fn(u64) -> Network + Send + Sync;

/// Networks parked per factory per thread. The most any caller hands
/// back at once is three (a B3 baseline client's student and two
/// teachers); one spare absorbs a caller that holds one more.
pub const MAX_IDLE: usize = 4;

struct Entry {
    factory: Weak<Factory>,
    idle: Vec<Network>,
}

impl Entry {
    fn serves(&self, factory: &ModelFactory) -> bool {
        std::ptr::addr_eq(self.factory.as_ptr(), std::sync::Arc::as_ptr(factory))
    }
}

thread_local! {
    static POOL: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// A network built by `factory` that carries `state` and zeroed
/// gradients: a parked one if this thread has one, else `factory(0)`.
/// Hand it back with [`give`] when done.
///
/// # Panics
///
/// Panics if `state` does not have the factory's state length.
pub fn take(factory: &ModelFactory, state: &[f32]) -> Network {
    let parked = POOL.with(|pool| {
        pool.borrow_mut()
            .iter_mut()
            .find(|e| e.serves(factory))
            .and_then(|e| e.idle.pop())
    });
    let mut net = parked.unwrap_or_else(|| (factory)(0));
    net.set_state_vector(state);
    net.zero_grad();
    net
}

/// Parks `net` on this thread for the next [`take`] of `factory`. The
/// network must have been built by `factory` (by [`take`] or by calling
/// the factory directly); its state does not matter. Beyond
/// [`MAX_IDLE`] parked networks it is dropped.
pub fn give(factory: &ModelFactory, net: Network) {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let i = match pool.iter().position(|e| e.serves(factory)) {
            Some(i) => i,
            None => {
                pool.retain(|e| e.factory.strong_count() > 0);
                pool.push(Entry {
                    factory: std::sync::Arc::downgrade(factory),
                    idle: Vec::with_capacity(MAX_IDLE),
                });
                pool.len() - 1
            }
        };
        let idle = &mut pool[i].idle;
        if idle.len() < MAX_IDLE {
            idle.push(net);
        }
    });
}

/// Runs `f` on a network carrying `state` ([`take`]), then parks the
/// network again ([`give`]) — the form for evaluation sites.
pub fn with<R>(factory: &ModelFactory, state: &[f32], f: impl FnOnce(&mut Network) -> R) -> R {
    let mut net = take(factory, state);
    let out = f(&mut net);
    give(factory, net);
    out
}

/// Number of networks parked on this thread for `factory`.
pub fn idle(factory: &ModelFactory) -> usize {
    POOL.with(|pool| {
        pool.borrow()
            .iter()
            .find(|e| e.serves(factory))
            .map_or(0, |e| e.idle.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use goldfish_nn::zoo;
    use goldfish_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    fn mlp_factory() -> ModelFactory {
        Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(6, &[5], 3, &mut rng)
        })
    }

    #[test]
    fn take_installs_state_and_zeroes_grads() {
        let factory = mlp_factory();
        let state = (factory)(7).state_vector();
        let mut dirty = (factory)(3);
        let x = Tensor::filled(vec![2, 6], 0.5);
        let y = dirty.forward(&x, true);
        dirty.backward(&Tensor::filled(y.shape().to_vec(), 1.0));
        give(&factory, dirty);
        let net = take(&factory, &state);
        assert_eq!(net.state_vector(), state);
        assert!(net.grad_vector().iter().all(|&g| g == 0.0));
        assert_eq!(idle(&factory), 0);
    }

    #[test]
    fn entries_are_per_factory_allocation() {
        let calls = Arc::new(AtomicUsize::new(0));
        let make = |calls: &Arc<AtomicUsize>| -> ModelFactory {
            let calls = Arc::clone(calls);
            Arc::new(move |seed| {
                calls.fetch_add(1, Ordering::Relaxed);
                let mut rng = StdRng::seed_from_u64(seed);
                zoo::mlp(6, &[5], 3, &mut rng)
            })
        };
        let a = make(&calls);
        let b = make(&calls);
        let state = (a)(1).state_vector();
        give(&a, take(&a, &state));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // A second factory never sees the first one's network.
        give(&b, take(&b, &state));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!((idle(&a), idle(&b)), (1, 1));
        // A clone of the same Arc is the same factory.
        let a2 = Arc::clone(&a);
        with(&a2, &state, |_| {});
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        // Dropping a factory and re-creating it yields a fresh entry.
        drop((a, a2));
        let c = make(&calls);
        assert_eq!(idle(&c), 0);
        with(&c, &state, |_| {});
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn parked_networks_are_bounded() {
        let factory = mlp_factory();
        let state = (factory)(1).state_vector();
        let nets: Vec<Network> = (0..MAX_IDLE + 2).map(|_| take(&factory, &state)).collect();
        for net in nets {
            give(&factory, net);
        }
        assert_eq!(idle(&factory), MAX_IDLE);
    }

    #[test]
    fn pools_are_per_thread() {
        let factory = mlp_factory();
        let state = (factory)(1).state_vector();
        give(&factory, take(&factory, &state));
        let f = Arc::clone(&factory);
        let other = std::thread::spawn(move || idle(&f)).join().unwrap();
        assert_eq!((idle(&factory), other), (1, 0));
    }
}
