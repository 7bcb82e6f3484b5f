//! An unbounded single-producer, single-consumer channel whose receive is
//! a blocking point of a virtual clock's executor.

use crate::exec::{current_slot, Slot, Wait, WaitOn};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::Arc;

struct State<T> {
    items: VecDeque<T>,
    sender: bool,
    receiver: bool,
    /// The receiver, while it waits.
    waiter: Option<Arc<Slot>>,
}

type Chan<T> = Arc<Mutex<State<T>>>;

/// The sending half of [`channel`].
pub struct Sender<T> {
    chan: Chan<T>,
}

/// The receiving half of [`channel`].
pub struct Receiver<T> {
    chan: Chan<T>,
}

/// The message of a send whose receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// A receive on an empty channel whose sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Creates an unbounded channel.
///
/// # Examples
///
/// ```
/// let (tx, rx) = fastiov_simtime::channel();
/// tx.send(7).unwrap();
/// drop(tx);
/// assert_eq!(rx.recv(), Ok(7));
/// assert!(rx.recv().is_err());
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Mutex::new(State {
        items: VecDeque::new(),
        sender: true,
        receiver: true,
        waiter: None,
    }));
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Queues `msg`, waking the receiver; fails if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let waiter = {
            let mut st = self.chan.lock();
            if !st.receiver {
                return Err(SendError(msg));
            }
            st.items.push_back(msg);
            st.waiter.take()
        };
        if let Some(w) = waiter {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waiter = {
            let mut st = self.chan.lock();
            st.sender = false;
            st.waiter.take()
        };
        if let Some(w) = waiter {
            w.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Takes the next message, waiting while the channel is empty; fails
    /// once it is empty and the sender is gone.
    #[track_caller]
    pub fn recv(&self) -> Result<T, RecvError> {
        let site = Location::caller();
        loop {
            let me = {
                let mut st = self.chan.lock();
                if let Some(msg) = st.items.pop_front() {
                    return Ok(msg);
                }
                if !st.sender {
                    return Err(RecvError);
                }
                let me = current_slot();
                st.waiter = Some(Arc::clone(&me));
                me
            };
            let wait = Wait {
                on: WaitOn::Recv,
                site,
            };
            me.block(wait, || self.chan.lock().waiter.take().is_some());
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.lock().receiver = false;
    }
}
