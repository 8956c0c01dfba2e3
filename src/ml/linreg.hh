/**
 * @file
 * Ordinary least squares with optional ridge regularisation, solved
 * via normal equations. Used for the traffic-aware accelerator model
 * (Eq. 5: per-request processing time as a linear function of MTBR).
 */

#ifndef TOMUR_ML_LINREG_HH
#define TOMUR_ML_LINREG_HH

#include <vector>

#include "ml/dataset.hh"

namespace tomur::ml {

/**
 * Linear model y = b0 + b . x.
 */
class LinearRegression
{
  public:
    /**
     * Fit with normal equations (X^T X + ridge I)^-1 X^T y.
     * @param ridge small L2 regulariser for numerical stability
     */
    void fit(const Dataset &data, double ridge = 1e-9);

    /** Fit a 1-D model from (x, y) pairs. */
    void fit1d(const std::vector<double> &x,
               const std::vector<double> &y, double ridge = 1e-9);

    /** Predict one sample. */
    double predict(const std::vector<double> &features) const;

    /** Predict a 1-D model. */
    double predict1d(double x) const;

    /** Intercept b0. */
    double intercept() const { return intercept_; }

    /** Coefficients b. */
    const std::vector<double> &coefficients() const { return coef_; }

    bool fitted() const { return fitted_; }

  private:
    double intercept_ = 0.0;
    std::vector<double> coef_;
    bool fitted_ = false;
};

} // namespace tomur::ml

#endif // TOMUR_ML_LINREG_HH
