//! One outbreak, assembled: the single place an [`Engine`] is built,
//! observed and run.

use hotspots_netmodel::Environment;
use hotspots_telescope::DetectorField;

use crate::engine::{Engine, SimConfig, SimResult};
use crate::observers::{FieldObserver, NullObserver};
use crate::population::{Population, PopulationError};
use crate::worms::WormModel;

/// Everything one engine run needs: the spec path's build output and
/// the studies' hand-assembled runs alike.
pub struct Outbreak {
    /// Engine configuration.
    pub config: SimConfig,
    /// The vulnerable population (NAT already applied).
    pub population: Population,
    /// The network environment (loss, latency, filters, NAT realms).
    pub environment: Environment,
    /// The worm targeting model.
    pub worm: Box<dyn WormModel>,
    /// The sensor field observing the run, if any.
    pub detector: Option<DetectorField>,
}

impl std::fmt::Debug for Outbreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbreak")
            .field("config", &self.config)
            .field("population", &self.population.len())
            .field("worm", &self.worm.name())
            .field("sensors", &self.detector.as_ref().map(DetectorField::len))
            .finish()
    }
}

impl Outbreak {
    /// Runs the outbreak: the detector, if any, observes every probe
    /// with payload visibility following the worm's transport
    /// ([`FieldObserver::with_service`]). Returns the engine's result
    /// and the detector after the run.
    ///
    /// # Errors
    ///
    /// [`PopulationError::FewerHostsThanSeeds`] when the population
    /// cannot hold the configured seed hosts.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`Engine::new`]).
    pub fn run(self) -> Result<(SimResult, Option<DetectorField>), PopulationError> {
        let (hosts, seeds) = (self.population.len(), self.config.seeds);
        if hosts < seeds {
            return Err(PopulationError::FewerHostsThanSeeds { hosts, seeds });
        }
        let service = self.worm.service();
        let mut engine = Engine::new(self.config, self.population, self.environment, self.worm);
        Ok(match self.detector {
            Some(field) => {
                let mut observer = FieldObserver::with_service(field, service);
                let result = engine.run(&mut observer);
                (result, Some(observer.into_field()))
            }
            None => (engine.run(&mut NullObserver), None),
        })
    }
}
