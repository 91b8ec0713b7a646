package obs

// SpansFixture exposes the wall-clock span fixture to the package's
// external tests.
var SpansFixture = spansFixture
