//! Async channels: unbounded mpsc and oneshot.

/// An unbounded multi-producer, single-consumer channel with an async
/// `recv`.
pub mod mpsc {
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    struct State<T> {
        queue: VecDeque<T>,
        /// The receiver's parked waker, if it is waiting for a value.
        waker: Option<Waker>,
        senders: usize,
        receiver_alive: bool,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Sending half; clone freely.
    pub struct UnboundedSender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; exactly one exists per channel.
    pub struct UnboundedReceiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiver was dropped; the value comes back in the error.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waker: None,
                senders: 1,
                receiver_alive: true,
            }),
        });
        (UnboundedSender { shared: Arc::clone(&shared) }, UnboundedReceiver { shared })
    }

    impl<T> UnboundedSender<T> {
        /// Queues a value, waking the receiver if it is parked.
        ///
        /// # Errors
        ///
        /// Returns the value if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let waker = {
                let mut state = self.shared.lock();
                if !state.receiver_alive {
                    return Err(SendError(value));
                }
                state.queue.push_back(value);
                state.waker.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
            Ok(())
        }
    }

    impl<T> Clone for UnboundedSender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            UnboundedSender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for UnboundedSender<T> {
        fn drop(&mut self) {
            let waker = {
                let mut state = self.shared.lock();
                state.senders -= 1;
                if state.senders == 0 {
                    state.waker.take()
                } else {
                    None
                }
            };
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    impl<T> UnboundedReceiver<T> {
        /// Resolves to the next value, or `None` once the queue is empty
        /// and every sender has been dropped.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { receiver: self }
        }
    }

    impl<T> Drop for UnboundedReceiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receiver_alive = false;
            state.queue.clear();
        }
    }

    /// Future returned by [`UnboundedReceiver::recv`].
    pub struct Recv<'r, T> {
        receiver: &'r mut UnboundedReceiver<T>,
    }

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let this = self.get_mut();
            let mut state = this.receiver.shared.lock();
            if let Some(value) = state.queue.pop_front() {
                return Poll::Ready(Some(value));
            }
            if state.senders == 0 {
                return Poll::Ready(None);
            }
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A channel carrying exactly one value.
pub mod oneshot {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    /// The sender was dropped without sending.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Canceled;

    impl std::fmt::Display for Canceled {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("oneshot canceled")
        }
    }

    impl std::error::Error for Canceled {}

    struct State<T> {
        value: Option<T>,
        waker: Option<Waker>,
        sender_gone: bool,
        receiver_gone: bool,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Sending half.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
        sent: bool,
    }

    /// Receiving half: a future resolving to the value, or [`Canceled`]
    /// if the sender was dropped first.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Whether the channel already holds its value or a
        /// cancellation — i.e. awaiting would resolve without parking.
        pub fn is_ready(&self) -> bool {
            let state = self.shared.lock();
            state.value.is_some() || state.sender_gone
        }
    }

    /// Creates a oneshot channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                value: None,
                waker: None,
                sender_gone: false,
                receiver_gone: false,
            }),
        });
        (Sender { shared: Arc::clone(&shared), sent: false }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Delivers the value, waking a parked receiver.
        ///
        /// # Errors
        ///
        /// Returns the value if the receiver was dropped.
        pub fn send(mut self, value: T) -> Result<(), T> {
            let waker = {
                let mut state = self.shared.lock();
                if state.receiver_gone {
                    return Err(value);
                }
                state.value = Some(value);
                self.sent = true;
                state.waker.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.sent {
                return;
            }
            let waker = {
                let mut state = self.shared.lock();
                state.sender_gone = true;
                state.waker.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Canceled>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut state = self.shared.lock();
            if let Some(value) = state.value.take() {
                return Poll::Ready(Ok(value));
            }
            if state.sender_gone {
                return Poll::Ready(Err(Canceled));
            }
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receiver_gone = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;

    #[test]
    fn mpsc_orders_values_and_closes() {
        let (tx, mut rx) = mpsc::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(block_on(rx.recv()), Some(1));
        assert_eq!(block_on(rx.recv()), Some(2));
        assert_eq!(block_on(rx.recv()), None);
    }

    #[test]
    fn mpsc_send_fails_after_receiver_drop() {
        let (tx, rx) = mpsc::unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(mpsc::SendError(9)));
    }

    #[test]
    fn mpsc_clone_keeps_channel_open() {
        let (tx, mut rx) = mpsc::unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        assert_eq!(block_on(rx.recv()), Some(5));
        drop(tx2);
        assert_eq!(block_on(rx.recv()), None);
    }

    #[test]
    fn oneshot_delivers_once() {
        let (tx, rx) = oneshot::channel();
        tx.send("hi").unwrap();
        assert_eq!(block_on(rx), Ok("hi"));
    }

    #[test]
    fn oneshot_cancels_on_sender_drop() {
        let (tx, rx) = oneshot::channel::<u8>();
        drop(tx);
        assert_eq!(block_on(rx), Err(oneshot::Canceled));
    }

    #[test]
    fn oneshot_send_fails_after_receiver_drop() {
        let (tx, rx) = oneshot::channel();
        drop(rx);
        assert_eq!(tx.send(3), Err(3));
    }
}
