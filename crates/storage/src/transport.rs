//! Transport abstraction over the fetch protocol.
//!
//! [`TcpStorageClient`] is the one wire client; `FetchTransport` lets
//! higher layers — notably the `sophon` data loader — run over it or over
//! any decorator stacked on it (retries, caching, fault injection, fleet
//! routing, tracing) and over in-memory fakes in tests.

use pipeline::PipelineSpec;

use crate::{ClientError, FetchRequest, FetchResponse, TcpStorageClient};

/// A connection capable of configuring a session and fetching samples.
pub trait FetchTransport {
    /// Configures the session pipeline; must precede fetches.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport or server failures.
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError>;

    /// Issues all requests up front and collects every response (any
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the first failure.
    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError>;
}

impl FetchTransport for TcpStorageClient {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        TcpStorageClient::configure(self, dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        TcpStorageClient::fetch_many_requests(self, requests)
    }
}
