//! Offline stand-in for `crossbeam`, backed by `std::sync::mpsc`.
//!
//! Only the `channel` module subset the workspace uses is provided:
//! `unbounded` / `bounded` constructors, cloneable [`channel::Sender`],
//! a (single-consumer) [`channel::Receiver`], and the error types needed
//! to detect disconnection. The real crossbeam receiver is cloneable;
//! every consumer in this workspace is single-threaded per channel, so
//! the mpsc restriction never bites — and the type system enforces it.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an offline stand-in for an external crate, built on std's raw primitives"
)]

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Sending half of a channel. Cloneable, like crossbeam's.
    pub struct Sender<T> {
        inner: SenderKind<T>,
    }

    enum SenderKind<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: match &self.inner {
                    SenderKind::Unbounded(s) => SenderKind::Unbounded(s.clone()),
                    SenderKind::Bounded(s) => SenderKind::Bounded(s.clone()),
                },
            }
        }
    }

    /// Receiving half of a channel (single consumer).
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    /// The channel is disconnected (all receivers dropped).
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel empty"),
                TryRecvError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("recv timed out"),
                RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    impl<T> std::error::Error for SendError<T> where T: fmt::Debug {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}
    impl std::error::Error for RecvTimeoutError {}

    /// Channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                inner: SenderKind::Unbounded(tx),
            },
            Receiver { inner: rx },
        )
    }

    /// Channel that blocks senders once `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender {
                inner: SenderKind::Bounded(tx),
            },
            Receiver { inner: rx },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.inner {
                SenderKind::Unbounded(s) => s.send(msg).map_err(|e| SendError(e.0)),
                SenderKind::Bounded(s) => s.send(msg).map_err(|e| SendError(e.0)),
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.inner.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::thread;

    #[test]
    fn unbounded_round_trip() {
        let (tx, rx) = channel::unbounded();
        let t = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        t.join().unwrap();
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn disconnect_is_detected() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
        let (tx2, rx2) = channel::bounded::<u8>(1);
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn cloned_senders_share_channel() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1u8).unwrap();
        tx2.send(2u8).unwrap();
        drop((tx, tx2));
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
