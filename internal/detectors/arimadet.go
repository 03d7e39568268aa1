package detectors

import "opprentice/internal/arima"

// ARIMADetector wraps an ARIMA model as a basic detector [10]. Following
// §4.3.3, its parameters are not swept: Fit estimates the order and
// coefficients from historical data (auto-ARIMA by AIC), producing Table 3's
// single configuration. Severity is the absolute one-step forecast residual.
// Until Fit is called the detector reports not-ready.
type ARIMADetector struct {
	maxP, maxD, maxQ int
	model            *arima.Model
	fc               *arima.Forecaster
}

// NewARIMA returns an untrained ARIMA detector with the given order-search
// bounds.
func NewARIMA(maxP, maxD, maxQ int) *ARIMADetector {
	return &ARIMADetector{maxP: maxP, maxD: maxD, maxQ: maxQ}
}

// Name implements Detector.
func (d *ARIMADetector) Name() string { return "arima(auto)" }

// Fit implements Trainable: it estimates the model order and coefficients
// from history and restarts the forecaster. Refitting periodically keeps the
// estimates current as the data drifts (§4.3.3).
func (d *ARIMADetector) Fit(history []float64) error {
	m, err := arima.FitAuto(history, d.maxP, d.maxD, d.maxQ)
	if err != nil {
		return err
	}
	d.model = m
	d.fc = arima.NewForecaster(m)
	// Warm the forecaster on the tail of the history so detection can
	// continue seamlessly from the next point.
	warm := 4 * (m.P + m.D + m.Q + 1)
	if warm > len(history) {
		warm = len(history)
	}
	for _, v := range history[len(history)-warm:] {
		d.fc.Step(v)
	}
	return nil
}

// Step implements Detector.
func (d *ARIMADetector) Step(v float64) (float64, bool) {
	if d.fc == nil {
		return 0, false
	}
	forecast, ready := d.fc.Step(v)
	if !ready {
		return 0, false
	}
	sev := v - forecast
	if sev < 0 {
		sev = -sev
	}
	return sev, true
}

// Reset implements Detector: it clears the forecaster state but keeps the
// fitted model.
func (d *ARIMADetector) Reset() {
	if d.fc != nil {
		d.fc.Reset()
	}
}
